#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks. Each returns an empty string when the output is right and a
// one-line description of the first difference otherwise. References are
// computed apart from the code path under test (direct LF calls, the
// interpreted uncached applier, a model restored from the saved snapshot);
// nothing here compares against a stored copy of earlier output.

#include <string>
#include <vector>

#include "core/label_matrix.h"
#include "data/candidate.h"
#include "lf/applier.h"
#include "lf/labeling_function.h"
#include "serve/label_service.h"

namespace perfbench {

/// Λ by calling every LabelingFunction::Apply on every CandidateView
/// directly: no applier, no compiled engine, no cache. Row i reports
/// rows[i].index.
std::vector<snorkel::Label> DirectVotes(
    const snorkel::LabelingFunctionSet& lfs, const snorkel::Corpus& corpus,
    const std::vector<snorkel::CandidateRef>& rows);

/// `got` must hold exactly the dense votes `want` (row-major, rows x lfs).
std::string CheckVotes(const snorkel::LabelMatrix& got,
                       const std::vector<snorkel::Label>& want, size_t rows,
                       size_t lfs);

/// Two label matrices must agree in shape and in every cell.
std::string CheckMatrixEqual(const snorkel::LabelMatrix& got,
                             const snorkel::LabelMatrix& want);

/// Posteriors must be bitwise-equal, row for row (a missing row fails).
std::string CheckBitwise(const std::vector<double>& got,
                         const std::vector<double>& want);

/// Class symmetry of the generative posterior without the class-balance
/// prior: p(-Λ)_i == 1 - p(Λ)_i on every row, to within kSymmetryTolerance.
/// The posterior is σ(f) with f(-Λ) = -f(Λ) exactly, but σ is evaluated as
/// 1/(1+e) for f >= 0 and e/(1+e) for f < 0 (e = exp(-|f|)), so the two
/// sides are separately rounded quotients: |p(Λ) + p(-Λ) - 1| <= 2u, and
/// forming 1 - p(Λ) adds at most u more (u = 2^-53).
inline constexpr double kSymmetryTolerance = 4 * 0x1p-53;
std::string CheckClassSymmetry(const std::vector<double>& p,
                               const std::vector<double>& p_negated);

/// Rows with no votes must get `prior` to within `tolerance`: exactly 0.5
/// for the class-symmetric posterior (σ(0) = 1/2 is exact), and the class
/// balance π when the prior is applied, which the model computes as
/// σ(logit(π)) through the vectorized sigmoid. That kernel's degree-11
/// Taylor exp truncates at up to r^12/12! ~ 6.3e-15 relative for
/// |r| = ln2/2, which bounds σ's absolute error by ~3.2e-15 (18u was the
/// worst seen on a dense grid); logit adds under 1u. kPriorTolerance = 64u
/// (7.1e-15) covers both with headroom, far below any real prior error.
inline constexpr double kPriorTolerance = 64 * 0x1p-53;
std::string CheckNoVoteRows(const snorkel::LabelMatrix& matrix,
                            const std::vector<double>& p, double prior,
                            double tolerance);

/// A served binary response for `rows` candidates: complete (not partial,
/// every row covered), the right size, posteriors bitwise-equal to `want`,
/// and hard labels thresholded from them at 0.5.
std::string CheckResponse(const snorkel::LabelResponse& response,
                          const std::vector<double>& want, size_t rows);

/// Two serialized artifacts (snapshot files) must be byte-identical; the
/// first differing offset, or the size difference, is reported.
std::string CheckBytesEqual(const std::string& got, const std::string& want,
                            const std::string& what);

/// Λ with every vote negated (the input of the class-symmetry check).
snorkel::LabelMatrix Negated(const snorkel::LabelMatrix& matrix);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
