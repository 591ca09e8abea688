// Tests for the quality metrics: Top-1, COCO mAP, mIoU, SQuAD span F1.
#include <gtest/gtest.h>

#include "metrics/classification.h"
#include "metrics/f1.h"
#include "metrics/map.h"
#include "metrics/miou.h"

namespace mlpm::metrics {
namespace {

using models::BBox;
using models::Detection;

// ---- classification ----

TEST(Classification, ArgMaxPicksLargest) {
  const float logits[] = {0.1f, 0.9f, 0.3f};
  EXPECT_EQ(ArgMax(logits), 1);
}

TEST(Classification, ArgMaxTieBreaksLow) {
  const float logits[] = {0.5f, 0.5f};
  EXPECT_EQ(ArgMax(logits), 0);
}

TEST(Classification, AccuracyCounts) {
  const int preds[] = {1, 2, 3, 4};
  const int labels[] = {1, 2, 0, 0};
  EXPECT_DOUBLE_EQ(TopOneAccuracy(preds, labels), 0.5);
}

TEST(Classification, AccuracyRejectsMismatch) {
  const std::vector<int> preds{1};
  const std::vector<int> labels{1, 2};
  EXPECT_THROW((void)TopOneAccuracy(preds, labels), CheckError);
}

// ---- IoU / mAP ----

TEST(BBoxIoU, IdenticalBoxesIouOne) {
  const BBox b{0.1f, 0.1f, 0.5f, 0.5f};
  EXPECT_FLOAT_EQ(b.IoU(b), 1.0f);
}

TEST(BBoxIoU, DisjointBoxesIouZero) {
  const BBox a{0.0f, 0.0f, 0.2f, 0.2f};
  const BBox b{0.5f, 0.5f, 0.9f, 0.9f};
  EXPECT_FLOAT_EQ(a.IoU(b), 0.0f);
}

TEST(BBoxIoU, HalfOverlap) {
  const BBox a{0.0f, 0.0f, 1.0f, 0.5f};
  const BBox b{0.0f, 0.0f, 1.0f, 1.0f};
  EXPECT_NEAR(a.IoU(b), 0.5f, 1e-6f);
}

TEST(BBoxIoU, Symmetric) {
  const BBox a{0.0f, 0.0f, 0.6f, 0.6f};
  const BBox b{0.3f, 0.3f, 0.9f, 0.9f};
  EXPECT_FLOAT_EQ(a.IoU(b), b.IoU(a));
}

ImageGroundTruth OneGt(int cls) {
  return {GroundTruthBox{BBox{0.2f, 0.2f, 0.6f, 0.6f}, cls}};
}

ImageDetections OneDet(int cls, float score,
                       BBox box = BBox{0.2f, 0.2f, 0.6f, 0.6f}) {
  return {Detection{box, cls, score}};
}

TEST(MeanAp, PerfectDetectionScoresOne) {
  const std::vector<ImageDetections> dets{OneDet(1, 0.9f)};
  const std::vector<ImageGroundTruth> gts{OneGt(1)};
  EXPECT_NEAR(MeanAveragePrecision(dets, gts, 0.5), 1.0, 1e-2);
}

TEST(MeanAp, WrongClassScoresZero) {
  const std::vector<ImageDetections> dets{OneDet(2, 0.9f)};
  const std::vector<ImageGroundTruth> gts{OneGt(1)};
  EXPECT_NEAR(MeanAveragePrecision(dets, gts, 0.5), 0.0, 1e-9);
}

TEST(MeanAp, MissedBoxLowersRecall) {
  std::vector<ImageDetections> dets{OneDet(1, 0.9f), {}};
  std::vector<ImageGroundTruth> gts{OneGt(1), OneGt(1)};
  const double ap = MeanAveragePrecision(dets, gts, 0.5);
  EXPECT_GT(ap, 0.3);
  EXPECT_LT(ap, 0.7);
}

TEST(MeanAp, FalsePositiveLowersPrecision) {
  std::vector<ImageDetections> dets{OneDet(1, 0.9f)};
  dets[0].push_back(
      Detection{BBox{0.7f, 0.7f, 0.9f, 0.9f}, 1, 0.95f});  // spurious, higher
  std::vector<ImageGroundTruth> gts{OneGt(1)};
  EXPECT_LT(MeanAveragePrecision(dets, gts, 0.5), 1.0);
}

TEST(MeanAp, DuplicateDetectionCountsOnceAsTp) {
  std::vector<ImageDetections> dets{
      {Detection{BBox{0.2f, 0.2f, 0.6f, 0.6f}, 1, 0.9f},
       Detection{BBox{0.2f, 0.2f, 0.6f, 0.6f}, 1, 0.8f}}};
  std::vector<ImageGroundTruth> gts{OneGt(1)};
  // Second detection is a false positive (GT already matched) but ranked
  // below the true positive, so AP stays at 1 over the recall range.
  EXPECT_NEAR(MeanAveragePrecision(dets, gts, 0.5), 1.0, 1e-2);
}

TEST(MeanAp, LooseBoxFailsAtHighThresholdOnly) {
  // Detection overlaps GT with IoU ~ 0.6.
  std::vector<ImageDetections> dets{
      OneDet(1, 0.9f, BBox{0.2f, 0.2f, 0.6f, 0.72f})};
  std::vector<ImageGroundTruth> gts{OneGt(1)};
  EXPECT_GT(MeanAveragePrecision(dets, gts, 0.5), 0.9);
  EXPECT_LT(MeanAveragePrecision(dets, gts, 0.9), 0.1);
}

TEST(MeanAp, CocoMapAveragesThresholds) {
  std::vector<ImageDetections> dets{
      OneDet(1, 0.9f, BBox{0.2f, 0.2f, 0.6f, 0.72f})};
  std::vector<ImageGroundTruth> gts{OneGt(1)};
  const double coco = CocoMap(dets, gts);
  EXPECT_GT(coco, 0.1);
  EXPECT_LT(coco, 0.9);
}

TEST(MeanAp, EmptyGroundTruthGivesZero) {
  std::vector<ImageDetections> dets{OneDet(1, 0.9f)};
  std::vector<ImageGroundTruth> gts{{}};
  EXPECT_EQ(MeanAveragePrecision(dets, gts, 0.5), 0.0);
}

TEST(MeanAp, ImageCountMismatchThrows) {
  std::vector<ImageDetections> dets{OneDet(1, 0.9f)};
  std::vector<ImageGroundTruth> gts;
  EXPECT_THROW((void)AveragePrecision(dets, gts, 1, 0.5), CheckError);
}

// ---- mIoU ----

TEST(MIoU, PerfectPredictionScoresOne) {
  MIoUAccumulator acc(3);
  const int labels[] = {0, 1, 2, 1, 0};
  acc.Add(labels, labels);
  EXPECT_DOUBLE_EQ(acc.MeanIoU(), 1.0);
}

TEST(MIoU, AllWrongScoresZero) {
  MIoUAccumulator acc(2);
  const int preds[] = {1, 1, 1};
  const int labels[] = {0, 0, 0};
  acc.Add(preds, labels);
  EXPECT_DOUBLE_EQ(acc.MeanIoU(), 0.0);
}

TEST(MIoU, KnownConfusionValue) {
  MIoUAccumulator acc(2);
  // class0: 2 TP, 1 FN (pred 1); class1: 1 TP, 1 FP.
  const int preds[] = {0, 0, 1, 1};
  const int labels[] = {0, 0, 0, 1};
  acc.Add(preds, labels);
  // IoU0 = 2/(2+0+1)=2/3 ; IoU1 = 1/(1+1+0)=1/2.
  EXPECT_NEAR(acc.MeanIoU(), (2.0 / 3.0 + 0.5) / 2.0, 1e-9);
}

TEST(MIoU, IgnoreLabelExcluded) {
  MIoUAccumulator acc(3, /*ignore_label=*/2);
  const int preds[] = {0, 1, 0};
  const int labels[] = {0, 2, 2};  // two ignored pixels
  acc.Add(preds, labels);
  EXPECT_DOUBLE_EQ(acc.MeanIoU(), 1.0);
}

TEST(MIoU, AbsentClassesDoNotDiluteMean) {
  MIoUAccumulator acc(10);
  const int labels[] = {0, 0, 1};
  acc.Add(labels, labels);
  EXPECT_DOUBLE_EQ(acc.MeanIoU(), 1.0);
}

TEST(MIoU, OutOfRangeLabelThrows) {
  MIoUAccumulator acc(2);
  const int preds[] = {0};
  const int labels[] = {5};
  EXPECT_THROW(acc.Add(preds, labels), CheckError);
}

TEST(MIoU, StreamingAccumulationMatchesBatch) {
  MIoUAccumulator one(3);
  MIoUAccumulator two(3);
  const int p1[] = {0, 1, 2};
  const int l1[] = {0, 1, 1};
  const int p2[] = {2, 2};
  const int l2[] = {2, 0};
  one.Add(p1, l1);
  one.Add(p2, l2);
  std::vector<int> pall{0, 1, 2, 2, 2};
  std::vector<int> lall{0, 1, 1, 2, 0};
  two.Add(pall, lall);
  EXPECT_DOUBLE_EQ(one.MeanIoU(), two.MeanIoU());
}

// ---- F1 ----

TEST(SpanF1, ExactMatchScoresOne) {
  EXPECT_DOUBLE_EQ(SpanF1({3, 7}, {3, 7}), 1.0);
}

TEST(SpanF1, DisjointScoresZero) {
  EXPECT_DOUBLE_EQ(SpanF1({0, 2}, {5, 9}), 0.0);
}

TEST(SpanF1, PartialOverlapKnownValue) {
  // pred [0,3] (4 tokens), truth [2,5] (4 tokens), overlap 2.
  // P = 2/4, R = 2/4, F1 = 0.5.
  EXPECT_DOUBLE_EQ(SpanF1({0, 3}, {2, 5}), 0.5);
}

TEST(SpanF1, AsymmetricLengths) {
  // pred [2,2] (1 token) inside truth [0,9] (10 tokens): P=1, R=0.1.
  EXPECT_NEAR(SpanF1({2, 2}, {0, 9}), 2 * 1.0 * 0.1 / 1.1, 1e-9);
}

TEST(SpanF1, MeanOverASet) {
  const std::vector<TokenSpan> preds{{0, 1}, {4, 6}};
  const std::vector<TokenSpan> truths{{0, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(MeanSpanF1(preds, truths), 0.5);
}

TEST(BestSpan, PicksArgmaxPair) {
  const float start[] = {0.0f, 5.0f, 0.0f, 0.0f};
  const float end[] = {0.0f, 0.0f, 4.0f, 0.0f};
  const TokenSpan s = BestSpan(start, end);
  EXPECT_EQ(s.start, 1);
  EXPECT_EQ(s.end, 2);
}

TEST(BestSpan, RespectsEndAfterStart) {
  const float start[] = {0.0f, 0.0f, 9.0f};
  const float end[] = {9.0f, 0.0f, 0.0f};
  const TokenSpan s = BestSpan(start, end);
  EXPECT_LE(s.start, s.end);
}

TEST(BestSpan, RespectsMaxLength) {
  const float start[] = {9.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const float end[] = {0.0f, 0.0f, 0.0f, 0.0f, 9.0f};
  const TokenSpan s = BestSpan(start, end, /*max_length=*/2);
  EXPECT_LE(s.length(), 2);
}

}  // namespace
}  // namespace mlpm::metrics
