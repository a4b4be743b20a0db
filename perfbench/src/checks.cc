#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <tuple>

namespace perfbench {

using snorkel::Label;
using snorkel::LabelMatrix;

namespace {

std::string Describe(const std::string& what, size_t row, double got,
                     double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: row %zu got %.17g want %.17g",
                what.c_str(), row, got, want);
  return buf;
}

std::vector<Label> Densify(const LabelMatrix& matrix) {
  std::vector<Label> dense(matrix.num_rows() * matrix.num_lfs(),
                           snorkel::kAbstain);
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    for (const LabelMatrix::Entry& e : matrix.row(i)) {
      dense[i * matrix.num_lfs() + e.lf] = e.label;
    }
  }
  return dense;
}

}  // namespace

std::vector<Label> DirectVotes(const snorkel::LabelingFunctionSet& lfs,
                               const snorkel::Corpus& corpus,
                               const std::vector<snorkel::CandidateRef>& rows) {
  std::vector<Label> dense(rows.size() * lfs.size(), snorkel::kAbstain);
  for (size_t i = 0; i < rows.size(); ++i) {
    snorkel::CandidateView view(&corpus, rows[i].candidate, rows[i].index);
    for (size_t j = 0; j < lfs.size(); ++j) {
      dense[i * lfs.size() + j] = lfs.at(j).Apply(view);
    }
  }
  return dense;
}

std::string CheckVotes(const LabelMatrix& got, const std::vector<Label>& want,
                       size_t rows, size_t lfs) {
  if (got.num_rows() != rows || got.num_lfs() != lfs) {
    return "label matrix shape " + std::to_string(got.num_rows()) + "x" +
           std::to_string(got.num_lfs()) + ", want " + std::to_string(rows) +
           "x" + std::to_string(lfs);
  }
  const std::vector<Label> dense = Densify(got);
  for (size_t k = 0; k < dense.size(); ++k) {
    if (dense[k] != want[k]) {
      return "vote differs at row " + std::to_string(k / lfs) + " lf " +
             std::to_string(k % lfs) + ": got " + std::to_string(dense[k]) +
             " want " + std::to_string(want[k]);
    }
  }
  return "";
}

std::string CheckMatrixEqual(const LabelMatrix& got, const LabelMatrix& want) {
  return CheckVotes(got, Densify(want), want.num_rows(), want.num_lfs());
}

std::string CheckBitwise(const std::vector<double>& got,
                         const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return "posterior count " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint64_t>(got[i]) != std::bit_cast<uint64_t>(want[i])) {
      return Describe("posterior differs", i, got[i], want[i]);
    }
  }
  return "";
}

std::string CheckClassSymmetry(const std::vector<double>& p,
                               const std::vector<double>& p_negated) {
  if (p.size() != p_negated.size()) return "class-symmetry row count differs";
  for (size_t i = 0; i < p.size(); ++i) {
    if (!(std::fabs(p_negated[i] - (1.0 - p[i])) <= kSymmetryTolerance)) {
      return Describe("p(-L) != 1 - p(L)", i, p_negated[i], 1.0 - p[i]);
    }
  }
  return "";
}

std::string CheckNoVoteRows(const LabelMatrix& matrix,
                            const std::vector<double>& p, double prior,
                            double tolerance) {
  if (p.size() != matrix.num_rows()) return "no-vote check row count differs";
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    if (matrix.row(i).empty() && !(std::fabs(p[i] - prior) <= tolerance)) {
      return Describe("row without votes", i, p[i], prior);
    }
  }
  return "";
}

std::string CheckResponse(const snorkel::LabelResponse& response,
                          const std::vector<double>& want, size_t rows) {
  if (response.is_partial) return "response is partial";
  for (size_t i = 0; i < rows; ++i) {
    if (!response.RowCovered(i)) {
      return "row " + std::to_string(i) + " not covered";
    }
  }
  if (response.posteriors.size() != rows ||
      response.hard_labels.size() != rows) {
    return "response has " + std::to_string(response.posteriors.size()) +
           " posteriors and " + std::to_string(response.hard_labels.size()) +
           " labels for " + std::to_string(rows) + " rows";
  }
  std::string why = CheckBitwise(response.posteriors, want);
  if (!why.empty()) return why;
  for (size_t i = 0; i < rows; ++i) {
    const Label expect = want[i] > 0.5   ? 1
                         : want[i] < 0.5 ? -1
                                         : snorkel::kAbstain;
    if (response.hard_labels[i] != expect) {
      return "hard label differs at row " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckBytesEqual(const std::string& got, const std::string& want,
                            const std::string& what) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      return what + ": byte " + std::to_string(i) + " differs";
    }
  }
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " bytes, want " +
           std::to_string(want.size());
  }
  return "";
}

LabelMatrix Negated(const LabelMatrix& matrix) {
  std::vector<std::tuple<size_t, size_t, Label>> triplets;
  triplets.reserve(matrix.NumNonAbstains());
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    for (const LabelMatrix::Entry& e : matrix.row(i)) {
      triplets.emplace_back(i, e.lf, static_cast<Label>(-e.label));
    }
  }
  return LabelMatrix::FromTriplets(matrix.num_rows(), matrix.num_lfs(),
                                   triplets, matrix.cardinality())
      .value();
}

}  // namespace perfbench
