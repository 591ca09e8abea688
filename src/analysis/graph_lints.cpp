// Graph structure lints (GRAPH001-GRAPH005).
//
// Answers "what exactly is wrong" with a graph read from a submitted file
// with coded, severity-graded diagnostics: id ranges and tensor kinds,
// aliasing writes, true cycle detection over the producer/consumer relation
// (a storage order with forward references is not a cycle), dead tensors
// and reachability from the graph outputs.
#include <cstddef>
#include <queue>
#include <unordered_set>
#include <vector>

#include "analysis/passes.h"

namespace mlpm::analysis {
namespace {

using graph::Graph;
using graph::Node;
using graph::TensorId;
using graph::TensorKind;

bool InRange(const Graph& g, TensorId id) {
  return id >= 0 && static_cast<std::size_t>(id) < g.tensors().size();
}

// Id-range and tensor-kind integrity.  Returns true when every id the later
// sub-passes dereference is in range.
bool CheckIntegrity(const Graph& g, DiagnosticEngine& de) {
  bool sound = true;
  const auto bad = [&](const SourceRef& src, std::string what) {
    de.Report("GRAPH005", src, std::move(what));
    sound = false;
  };

  for (const TensorId id : g.input_ids())
    if (!InRange(g, id))
      bad(GraphSource(g.name()),
          "graph input id " + std::to_string(id) + " is out of range");
  for (const TensorId id : g.output_ids())
    if (!InRange(g, id))
      bad(GraphSource(g.name()),
          "graph output id " + std::to_string(id) + " is out of range");

  for (std::size_t ni = 0; ni < g.nodes().size(); ++ni) {
    const Node& n = g.nodes()[ni];
    const SourceRef src = NodeSource(n.name, static_cast<std::int32_t>(ni));
    for (const TensorId id : n.inputs) {
      if (!InRange(g, id)) {
        bad(src, "input id " + std::to_string(id) + " is out of range");
      } else if (g.tensor(id).kind != TensorKind::kActivation) {
        de.Report("GRAPH005", src,
                  "input references weight tensor '" + g.tensor(id).name +
                      "'");
      }
    }
    for (const TensorId id : n.weights) {
      if (!InRange(g, id)) {
        bad(src, "weight id " + std::to_string(id) + " is out of range");
      } else if (g.tensor(id).kind != TensorKind::kWeight) {
        de.Report("GRAPH005", src,
                  "weight references activation tensor '" + g.tensor(id).name +
                      "'");
      }
    }
    if (!InRange(g, n.output))
      bad(src, "output id " + std::to_string(n.output) + " is out of range");
  }
  return sound;
}

// Aliasing writes (GRAPH003): double production, in-place aliasing, writes
// onto graph inputs or weight tensors.
void CheckAliasing(const Graph& g, DiagnosticEngine& de) {
  const std::unordered_set<TensorId> graph_inputs(g.input_ids().begin(),
                                                  g.input_ids().end());
  std::unordered_set<TensorId> produced;
  for (std::size_t ni = 0; ni < g.nodes().size(); ++ni) {
    const Node& n = g.nodes()[ni];
    const SourceRef src = NodeSource(n.name, static_cast<std::int32_t>(ni));
    if (!produced.insert(n.output).second)
      de.Report("GRAPH003", src,
                "output tensor '" + g.tensor(n.output).name +
                    "' is produced by more than one node");
    for (const TensorId in : n.inputs)
      if (in == n.output)
        de.Report("GRAPH003", src,
                  "output aliases its own input tensor '" +
                      g.tensor(in).name + "' (in-place write)");
    if (graph_inputs.contains(n.output))
      de.Report("GRAPH003", src,
                "output overwrites graph input '" + g.tensor(n.output).name +
                    "'");
    if (g.tensor(n.output).kind == TensorKind::kWeight)
      de.Report("GRAPH003", src,
                "output overwrites weight tensor '" + g.tensor(n.output).name +
                    "'");
  }
}

// Cycle detection (GRAPH004) over the node dependency relation via Kahn's
// algorithm.  A graph whose nodes permit *some* topological order is a DAG
// even if the storage order has forward references.
void CheckCycles(const Graph& g, DiagnosticEngine& de) {
  const std::size_t n = g.nodes().size();
  // producer[t] = node index writing tensor t, from node records (the
  // TensorInfo::producer field is untrusted here).
  std::vector<std::int32_t> producer(g.tensors().size(), -1);
  for (std::size_t ni = 0; ni < n; ++ni)
    producer[static_cast<std::size_t>(g.nodes()[ni].output)] =
        static_cast<std::int32_t>(ni);

  std::vector<std::vector<std::size_t>> consumers(n);
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (const TensorId in : g.nodes()[ni].inputs) {
      const std::int32_t p = producer[static_cast<std::size_t>(in)];
      if (p >= 0 && static_cast<std::size_t>(p) != ni) {
        consumers[static_cast<std::size_t>(p)].push_back(ni);
        ++indegree[ni];
      }
    }
  }

  std::queue<std::size_t> ready;
  for (std::size_t ni = 0; ni < n; ++ni)
    if (indegree[ni] == 0) ready.push(ni);
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t ni = ready.front();
    ready.pop();
    ++processed;
    for (const std::size_t c : consumers[ni])
      if (--indegree[c] == 0) ready.push(c);
  }
  if (processed == n) return;
  for (std::size_t ni = 0; ni < n; ++ni) {
    if (indegree[ni] == 0) continue;
    de.Report("GRAPH004", NodeSource(g.nodes()[ni].name,
                                     static_cast<std::int32_t>(ni)),
              "node is part of a dataflow cycle (" +
                  std::to_string(n - processed) + " node(s) unorderable)");
  }
}

// Dead tensors (GRAPH001) and unreachable nodes (GRAPH002).
void CheckLiveness(const Graph& g, DiagnosticEngine& de) {
  std::unordered_set<TensorId> consumed;
  std::vector<std::int32_t> producer(g.tensors().size(), -1);
  for (std::size_t ni = 0; ni < g.nodes().size(); ++ni) {
    for (const TensorId in : g.nodes()[ni].inputs) consumed.insert(in);
    producer[static_cast<std::size_t>(g.nodes()[ni].output)] =
        static_cast<std::int32_t>(ni);
  }
  const std::unordered_set<TensorId> outputs(g.output_ids().begin(),
                                             g.output_ids().end());

  for (const Node& n : g.nodes())
    if (!consumed.contains(n.output) && !outputs.contains(n.output))
      de.Report("GRAPH001",
                TensorSource(g.tensor(n.output).name, n.output),
                "tensor is produced by node '" + n.name +
                    "' but never consumed nor marked as a graph output");

  // Reverse reachability from the graph outputs through producers.
  std::vector<bool> reachable(g.nodes().size(), false);
  std::queue<std::size_t> frontier;
  for (const TensorId out : g.output_ids()) {
    const std::int32_t p = producer[static_cast<std::size_t>(out)];
    if (p >= 0 && !reachable[static_cast<std::size_t>(p)]) {
      reachable[static_cast<std::size_t>(p)] = true;
      frontier.push(static_cast<std::size_t>(p));
    }
  }
  while (!frontier.empty()) {
    const std::size_t ni = frontier.front();
    frontier.pop();
    for (const TensorId in : g.nodes()[ni].inputs) {
      const std::int32_t p = producer[static_cast<std::size_t>(in)];
      if (p >= 0 && !reachable[static_cast<std::size_t>(p)]) {
        reachable[static_cast<std::size_t>(p)] = true;
        frontier.push(static_cast<std::size_t>(p));
      }
    }
  }
  for (std::size_t ni = 0; ni < g.nodes().size(); ++ni)
    if (!reachable[ni])
      de.Report("GRAPH002", NodeSource(g.nodes()[ni].name,
                                       static_cast<std::int32_t>(ni)),
                "no dataflow path from this node to any graph output");
}

}  // namespace

void CheckGraphStructure(const Graph& g, DiagnosticEngine& de) {
  if (!CheckIntegrity(g, de)) return;  // later sub-passes dereference ids
  CheckAliasing(g, de);
  CheckCycles(g, de);
  CheckLiveness(g, de);
}

void RunModelPasses(const Graph& g, DiagnosticEngine& de) {
  CheckGraphStructure(g, de);
  if (!de.SeenCode("GRAPH005")) CheckShapeDataflow(g, de);
}

}  // namespace mlpm::analysis
