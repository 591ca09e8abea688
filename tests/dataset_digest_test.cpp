// Byte-identity goldens for the six task datasets.  Each digest is an
// FNV-1a-64 over size(), then every sample's InputsFor() float bytes and
// label data, then CalibrationInputsFor(0..3).  Default dataset configs,
// mini reference models, weight seed 7 — the bundles a submission scores
// against.  A change here means every accuracy score may have moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

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
  const ClassificationDataset ds(g, w, ClassificationDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Pod(ds.LabelFor(i));
            }),
            "406902a3732ec9c8");
}

void ExpectDetectionDigest(const models::DetectionModel& model,
                           const std::string& expected) {
  const infer::WeightStore w =
      infer::InitializeWeights(model.graph, kWeightSeed);
  const DetectionDataset ds(model, w, DetectionDatasetConfig{});
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
  const SegmentationDataset ds(g, w, SegmentationDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Sequence(ds.LabelMapFor(i));
            }),
            "9285e704676a1ebd");
}

TEST(DatasetDigest, QuestionAnswering) {
  const models::MobileBertConfig cfg = models::MiniMobileBertConfig();
  const graph::Graph g = models::BuildMobileBert(cfg);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  const QaDataset ds(g, w, cfg, QaDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Pod(ds.TruthFor(i).start);
              h.Pod(ds.TruthFor(i).end);
            }),
            "5362a370dd117a76");
}

TEST(DatasetDigest, Speech) {
  const models::RnntConfig cfg = models::MiniRnntConfig();
  const graph::Graph g = models::BuildMobileRnnt(cfg);
  const infer::WeightStore w = infer::InitializeWeights(g, kWeightSeed);
  const SpeechDataset ds(g, w, cfg, SpeechDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Sequence(ds.ReferenceFor(i));
            }),
            "d1f69f6134817785");
}

TEST(DatasetDigest, SuperResolution) {
  const SuperResDataset ds(SuperResDatasetConfig{});
  EXPECT_EQ(Digest(ds, [&](Fnv1a64& h, std::size_t i) {
              h.Floats(ds.HighResFor(LabelledDataset::kValidationSpace, i));
            }),
            "7824675931b03344");
}

}  // namespace
}  // namespace mlpm::datasets
