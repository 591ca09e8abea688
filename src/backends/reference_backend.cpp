#include "backends/reference_backend.h"

#include <span>

#include "common/check.h"
#include "common/thread_pool.h"
#include "infer/executor.h"

namespace mlpm::backends {

ReferenceBackend::ReferenceBackend(std::string name,
                                   const infer::Executor& executor,
                                   const loadgen::DatasetQsl& qsl,
                                   const ThreadPool* pool)
    : name_(std::move(name)), executor_(executor), qsl_(qsl), pool_(pool) {}

void ReferenceBackend::IssueQuery(
    std::span<const loadgen::QuerySample> samples,
    loadgen::ResponseSink& sink) {
  if (pool_ != nullptr && pool_->thread_count() > 1) {
    // Defer: accuracy mode issues samples one at a time, so evaluating here
    // would serialize.  FlushQueries sees the whole set and fans out.
    pending_.insert(pending_.end(), samples.begin(), samples.end());
    sink_ = &sink;
    return;
  }
  if (!ctx_.has_value()) ctx_.emplace(executor_.CreateContext());
  for (const loadgen::QuerySample& s : samples) {
    std::vector<infer::Tensor> outputs =
        executor_.Run(qsl_.Loaded(s.index), *ctx_);
    sink.Complete(loadgen::QuerySampleResponse{s.id, std::move(outputs)});
  }
}

void ReferenceBackend::FlushQueries() {
  if (pending_.empty()) return;
  std::vector<std::vector<infer::Tensor>> outputs = infer::RunSamplesParallel(
      executor_, pending_.size(),
      [&](std::size_t i) -> infer::SampleInputs {
        return std::span<const infer::Tensor>(qsl_.Loaded(pending_[i].index));
      },
      pool_);
  // The sink is not thread-safe; complete sequentially in issue order.
  loadgen::ResponseSink& sink =
      *NotNull(sink_, "deferred samples pending but no response sink bound");
  for (std::size_t i = 0; i < pending_.size(); ++i)
    sink.Complete(loadgen::QuerySampleResponse{pending_[i].id,
                                               std::move(outputs[i])});
  pending_.clear();
  sink_ = nullptr;
}

}  // namespace mlpm::backends
