// Shows that every output check the benchmark relies on rejects a wrong
// answer: a flipped vote, a posterior one ulp off, a missing row, a partial
// response and a snapshot one byte off. Each check must also accept the
// right answer, or the rejections would prove nothing. Exits non-zero if
// any expectation misses.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void ExpectAccepts(const std::string& why, const char* what) {
  if (!why.empty()) std::fprintf(stderr, "  (%s)\n", why.c_str());
  Expect(why.empty(), what);
}

void ExpectRejects(const std::string& why, const char* what) {
  Expect(!why.empty(), what);
}

}  // namespace

int main() {
  using snorkel::Label;
  using snorkel::LabelMatrix;
  using namespace perfbench;

  // ---- Votes. ----
  const std::vector<std::vector<Label>> dense = {
      {1, 0, -1}, {0, 0, 0}, {-1, 1, 1}, {1, 1, 0}};
  const LabelMatrix matrix = LabelMatrix::FromDense(dense).value();
  std::vector<Label> flat;
  for (const auto& row : dense) flat.insert(flat.end(), row.begin(), row.end());
  ExpectAccepts(CheckVotes(matrix, flat, 4, 3), "votes: equal accepted");
  ExpectAccepts(CheckMatrixEqual(matrix, matrix), "matrix: equal accepted");

  std::vector<Label> flipped = flat;
  flipped[2] = 1;  // Row 0, LF 2: -1 -> +1.
  ExpectRejects(CheckVotes(matrix, flipped, 4, 3), "votes: flipped vote");
  std::vector<std::vector<Label>> dense_flipped = dense;
  dense_flipped[2][0] = 1;
  ExpectRejects(
      CheckMatrixEqual(matrix, LabelMatrix::FromDense(dense_flipped).value()),
      "matrix: flipped vote");
  std::vector<std::vector<Label>> dense_abstain = dense;
  dense_abstain[3][1] = 0;  // A vote turned into an abstention.
  ExpectRejects(
      CheckMatrixEqual(matrix, LabelMatrix::FromDense(dense_abstain).value()),
      "matrix: dropped vote");
  std::vector<std::vector<Label>> dense_short(dense.begin(), dense.end() - 1);
  ExpectRejects(
      CheckMatrixEqual(matrix, LabelMatrix::FromDense(dense_short).value()),
      "matrix: missing row");

  // ---- Posteriors. ----
  const std::vector<double> p = {0.25, 0.5, 0.875, 0.1};
  ExpectAccepts(CheckBitwise(p, p), "posteriors: equal accepted");
  std::vector<double> ulp = p;
  ulp[2] = std::nextafter(ulp[2], 1.0);
  ExpectRejects(CheckBitwise(ulp, p), "posteriors: one ulp off");
  ExpectRejects(CheckBitwise({0.25, 0.5, 0.875}, p), "posteriors: missing row");
  ExpectRejects(CheckBitwise({0.0}, {-0.0}), "posteriors: signed zero");

  // ---- Class symmetry and rows without votes. ----
  std::vector<double> mirrored;
  for (double x : p) mirrored.push_back(1.0 - x);
  ExpectAccepts(CheckClassSymmetry(p, mirrored), "symmetry: exact accepted");
  mirrored[3] = std::nextafter(mirrored[3], 0.0);
  ExpectAccepts(CheckClassSymmetry(p, mirrored),
                "symmetry: within rounding accepted");
  mirrored[3] = 1.0 - p[3] + 1e-12;
  ExpectRejects(CheckClassSymmetry(p, mirrored), "symmetry: asymmetric row");
  ExpectRejects(CheckClassSymmetry(p, {0.75, 0.5, 0.125}),
                "symmetry: missing row");
  ExpectAccepts(CheckNoVoteRows(matrix, p, 0.5, 0.0), "no-vote row at 0.5");
  ExpectRejects(CheckNoVoteRows(matrix, p, 0.3, kPriorTolerance),
                "no-vote row off the prior");
  std::vector<double> p_ulp = p;
  p_ulp[1] = std::nextafter(0.5, 1.0);
  ExpectRejects(CheckNoVoteRows(matrix, p_ulp, 0.5, 0.0),
                "no-vote row one ulp off 0.5");

  // ---- Served responses. ----
  snorkel::LabelResponse good;
  good.posteriors = p;
  good.hard_labels = {-1, snorkel::kAbstain, 1, -1};
  ExpectAccepts(CheckResponse(good, p, 4), "response: complete accepted");

  snorkel::LabelResponse partial = good;
  partial.is_partial = true;
  partial.covered = {0b1011};  // Row 2 uncovered.
  ExpectRejects(CheckResponse(partial, p, 4), "response: partial");
  snorkel::LabelResponse uncovered = good;
  uncovered.covered = {0b0111};  // Row 3 uncovered, flag not set.
  ExpectRejects(CheckResponse(uncovered, p, 4), "response: uncovered row");
  snorkel::LabelResponse missing = good;
  missing.posteriors.pop_back();
  missing.hard_labels.pop_back();
  ExpectRejects(CheckResponse(missing, p, 4), "response: missing row");
  snorkel::LabelResponse off = good;
  off.posteriors[0] = std::nextafter(off.posteriors[0], 0.0);
  ExpectRejects(CheckResponse(off, p, 4), "response: posterior one ulp off");
  snorkel::LabelResponse wrong_label = good;
  wrong_label.hard_labels[2] = -1;
  ExpectRejects(CheckResponse(wrong_label, p, 4), "response: flipped label");

  // ---- Snapshot bytes. ----
  const std::string bytes("SNKS\x02\x00\x00\x00payload", 15);
  ExpectAccepts(CheckBytesEqual(bytes, bytes, "snapshot"),
                "snapshot: equal accepted");
  std::string flipped_byte = bytes;
  flipped_byte[9] ^= 0x01;
  ExpectRejects(CheckBytesEqual(flipped_byte, bytes, "snapshot"),
                "snapshot: flipped byte");
  ExpectRejects(CheckBytesEqual(bytes.substr(0, bytes.size() - 1), bytes,
                                "snapshot"),
                "snapshot: truncated");

  // ---- Negation helper used by the symmetry check. ----
  const LabelMatrix negated = Negated(matrix);
  std::vector<Label> negated_flat;
  for (Label x : flat) negated_flat.push_back(-x);
  ExpectAccepts(CheckVotes(negated, negated_flat, 4, 3), "negation");

  if (failures == 0) std::printf("perfbench checks: all rejections hold\n");
  return failures == 0 ? 0 : 1;
}
