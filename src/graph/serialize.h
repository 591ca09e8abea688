// Reader for submitted model files (paper §5.1: "the reference models are
// frozen TensorFlow FP32 checkpoints, and valid submissions must begin from
// these frozen graphs").  mlpm_lint loads `.graph` files through it and
// diagnoses them with the analysis passes (src/analysis).
//
// The format is line-oriented text that carries the graph structure only:
//
//   mlpm_graph v1
//   name <graph name>
//   tensor <id> <w|a> <rank> <dim>... <tensor name>
//   node <name> <op token> [<key>=<int> ...] in <n> <id>... w <n> <id>... out <id>
//   graph_input <id>
//   graph_output <id>
#pragma once

#include <string>

#include "graph/graph.h"

namespace mlpm::graph {

// Parses a graph text.  The text must be syntactically well-formed (known
// line tags and op tokens, integer fields, attrs in the op's order, counts
// that fit the line); anything else throws CheckError.  The resulting graph
// may violate any structural invariant (dangling ids, cycles, dead tensors,
// ...): the analysis passes ingest defective submitted models and
// *diagnose* them rather than throw at the first problem.  Never feed an
// unchecked graph to an executor.
[[nodiscard]] Graph ParseGraphUnchecked(const std::string& text);

}  // namespace mlpm::graph
