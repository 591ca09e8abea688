// Byte-identity goldens for the six task datasets.  Each digest is an
// FNV-1a-64 over size(), then every sample's InputsFor() float bytes and
// label data, then CalibrationInputsFor(0..3).  Default dataset configs,
// mini reference models, weight seed 7 — the bundles a submission scores
// against.  A change here means every accuracy score may have moved.  The
// five teacher-labelled sets are built serially and on pools of 2, 3 and 4
// lanes; every build must reproduce the same digest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/thread_pool.h"
#include "datasets/classification_dataset.h"
#include "datasets/detection_dataset.h"
#include "datasets/qa_dataset.h"
#include "datasets/segmentation_dataset.h"
#include "datasets/speech_dataset.h"
#include "datasets/superres_dataset.h"
#include "infer/weights.h"
#include "models/deeplab.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "models/rnnt.h"
#include "models/ssd.h"

namespace mlpm::datasets {
namespace {

constexpr std::uint64_t kWeightSeed = 7;

// Calls `build` with no pool, then with pools of 2, 3 and 4 lanes.
void ForEachLabellingPool(const std::function<void(const ThreadPool*)>& build) {
  build(nullptr);
  for (std::size_t lanes = 2; lanes <= 4; ++lanes) {
    SCOPED_TRACE("pool of " + std::to_string(lanes) + " lanes");
    const ThreadPool pool(lanes);
    build(&pool);
  }
}

class Fnv1a64 {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <class T>
  void Pod(const T& v) {
    Bytes(&v, sizeof v);
  }
  void Floats(const infer::Tensor& t) {
    Bytes(t.data(), t.size() * sizeof(float));
  }
  template <class T>
  void Sequence(const std::vector<T>& v) {
    Pod(static_cast<std::uint64_t>(v.size()));
    Bytes(v.data(), v.size() * sizeof(T));
  }

  [[nodiscard]] std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// `label(h, i)` folds sample i's ground truth into the digest.
std::string Digest(const TaskDataset& ds,
                   const std::function<void(Fnv1a64&, std::size_t)>& label) {
  Fnv1a64 h;
  h.Pod(static_cast<std::uint64_t>(ds.size()));
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (const infer::Tensor& t : ds.InputsFor(i)) h.Floats(t);
    label(h, i);
  }
  for (std::size_t i = 0; i < 4; ++i)
    for (const infer::Tensor& t : ds.CalibrationInputsFor(i)) h.Floats(t);
  return h.Hex();
}

TEST(DatasetDigest, Classification) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  ForEachLabellingPool([&](const ThreadPool* pool) {
    const ClassificationDataset ds(g, w, ClassificationDatasetConfig{}, pool);
    EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
                h.Pod(ds.LabelFor(i));
              }),
              "406902a3732ec9c8");
  });
}

void ExpectDetectionDigest(const models::DetectionModel& model,
                           const std::string& expected) {
  const infer::WeightStore w =
      infer::InitializeWeights(model.graph, kWeightSeed);
  ForEachLabellingPool([&](const ThreadPool* pool) {
    const DetectionDataset ds(model, w, DetectionDatasetConfig{}, pool);
    EXPECT_EQ(Digest(ds,
                     [&](Fnv1a64& h, std::size_t i) {
                       const metrics::ImageGroundTruth& gt =
                           ds.GroundTruthFor(i);
                       h.Pod(static_cast<std::uint64_t>(gt.size()));
                       for (const metrics::GroundTruthBox& b : gt) {
                         h.Pod(b.box.ymin);
                         h.Pod(b.box.xmin);
                         h.Pod(b.box.ymax);
                         h.Pod(b.box.xmax);
                         h.Pod(b.class_id);
                       }
                     }),
              expected);
  });
}

TEST(DatasetDigest, DetectionSsdV07) {
  ExpectDetectionDigest(models::BuildSsdMobileNetV2(models::ModelScale::kMini),
                        "62416e4976aca21c");
}

TEST(DatasetDigest, DetectionMobileDetV10) {
  ExpectDetectionDigest(models::BuildMobileDetSsd(models::ModelScale::kMini),
                        "d2b305650242c59d");
}

TEST(DatasetDigest, Segmentation) {
  const graph::Graph g = models::BuildDeepLabV3Plus(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  ForEachLabellingPool([&](const ThreadPool* pool) {
    const SegmentationDataset ds(g, w, SegmentationDatasetConfig{}, pool);
    EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
                h.Sequence(ds.LabelMapFor(i));
              }),
              "9285e704676a1ebd");
  });
}

TEST(DatasetDigest, QuestionAnswering) {
  const models::MobileBertConfig cfg = models::MiniMobileBertConfig();
  const graph::Graph g = models::BuildMobileBert(cfg);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  ForEachLabellingPool([&](const ThreadPool* pool) {
    const QaDataset ds(g, w, cfg, QaDatasetConfig{}, pool);
    EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
                h.Pod(ds.TruthFor(i).start);
                h.Pod(ds.TruthFor(i).end);
              }),
              "5362a370dd117a76");
  });
}

TEST(DatasetDigest, Speech) {
  const models::RnntConfig cfg = models::MiniRnntConfig();
  const graph::Graph g = models::BuildMobileRnnt(cfg);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  ForEachLabellingPool([&](const ThreadPool* pool) {
    const SpeechDataset ds(g, w, cfg, SpeechDatasetConfig{}, pool);
    EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
                h.Sequence(ds.ReferenceFor(i));
              }),
              "d1f69f6134817785");
  });
}

TEST(DatasetDigest, SuperResolution) {
  const SuperResDataset ds(SuperResDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Floats(ds.HighResFor(LabelledDataset::kValidationSpace, i));
            }),
            "7824675931b03344");
}

// A teacher-labelled set over a pass-through teacher: candidate i's input
// (and so the teacher's output) is the single value i, and the filter takes
// every third candidate, or none.  The filter checks that it sees the
// candidates 0, 1, 2, ... one by one, whatever the pool.
class EveryThirdDataset final : public LabelledDataset {
 public:
  EveryThirdDataset(std::size_t count, bool accept_none,
                    std::atomic<std::size_t>& inputs_made,
                    std::size_t& candidates_seen, const ThreadPool* pool)
      : inputs_made_(inputs_made) {
    graph::GraphBuilder b("pass_through");
    b.MarkOutput(b.Activate(b.Input("in", {1, 1}), graph::Activation::kRelu));
    const graph::Graph g = std::move(b).Build();
    const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
    candidates_seen = 0;
    LabelWithTeacher(
        g, w, count,
        [&](const std::vector<infer::Tensor>& out) {
          const auto candidate = static_cast<std::size_t>(out[0].at(0));
          EXPECT_EQ(candidate, candidates_seen) << "candidate out of order";
          ++candidates_seen;
          return !accept_none && candidate % 3 == 0;
        },
        pool);
  }

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> /*outputs*/) const override {
    return 0.0;
  }
  [[nodiscard]] std::string_view metric_name() const override {
    return "none";
  }

 protected:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t /*name_space*/,
                                        std::size_t index) const override {
    inputs_made_.fetch_add(1, std::memory_order_relaxed);
    infer::Tensor t(graph::TensorShape({1, 1}));
    t.at(0) = static_cast<float>(index);
    return t;
  }

 private:
  std::atomic<std::size_t>& inputs_made_;
};

TEST(LabelWithTeacher, AcceptsTheSameCandidatesAtEveryPoolSize) {
  // Ten accepts out of 28 candidates take several chunks of shrinking size,
  // so chunk boundaries fall between accepted candidates.
  constexpr std::size_t kCount = 10;
  ForEachLabellingPool([&](const ThreadPool* pool) {
    std::atomic<std::size_t> made{0};
    std::size_t seen = 0;
    const EveryThirdDataset ds(kCount, /*accept_none=*/false, made, seen,
                               pool);
    // The filter stops at the tenth accept, candidate 27; the teacher ran
    // at most lanes - 1 candidates ahead of it.
    EXPECT_EQ(seen, 3 * (kCount - 1) + 1);
    const std::size_t evaluated = made.load();  // before InputsFor adds more
    const std::size_t lanes = pool != nullptr ? pool->thread_count() : 1;
    EXPECT_GE(evaluated, seen);
    EXPECT_LT(evaluated, seen + lanes);
    ASSERT_EQ(ds.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
      EXPECT_EQ(ds.InputsFor(i)[0].at(0), static_cast<float>(3 * i));
  });
}

TEST(LabelWithTeacher, FilterThatNeverAcceptsStopsAt64xCount) {
  constexpr std::size_t kCount = 3;
  ForEachLabellingPool([&](const ThreadPool* pool) {
    std::atomic<std::size_t> made{0};
    std::size_t seen = 0;
    try {
      const EveryThirdDataset ds(kCount, /*accept_none=*/true, made, seen,
                                 pool);
      ADD_FAILURE() << "labelling an unacceptable pool did not throw";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("candidate pool exhausted"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(seen, 64 * kCount);
    EXPECT_EQ(made.load(), 64 * kCount);
  });
}

}  // namespace
}  // namespace mlpm::datasets
