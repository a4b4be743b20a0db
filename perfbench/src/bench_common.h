#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Clocks, resource probes, order statistics and the result record shared by
// the three workloads.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lf/compiled/engine.h"
#include "synth/relation_task.h"

namespace perfbench {

/// The command line: workload, seed, run length, tracing, scratch directory.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for temporary snapshots.
  std::string out_dir;
  /// NowSeconds() at the top of main(): set-up is timed from here.
  double process_start = 0.0;
};

/// One run's outcome. `correct` stays true until an output check fails.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Metric name -> value; units live with the names in workloads.h.
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed output check (an empty `why` means the check passed).
  void Check(const std::string& why);
};

/// Monotonic wall clock, seconds.
double NowSeconds();
/// CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();
/// Current resident set, MB.
double ResidentMb();
/// Peak resident set since process start, MB.
double PeakResidentMb();

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Distinct, seed-derived generator seeds: stream `stream`, item `i`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t i);

/// A copy of `task` whose corpus is a new object with a new identity, so no
/// process-wide cache keyed on the original corpus can answer for it. The
/// copy shares the original's LFs (and through them its knowledge base),
/// which must outlive it.
snorkel::RelationTask FreshCopy(const snorkel::RelationTask& task);

/// Share of compiled-scan cache lookups answered from the cache between two
/// readings of its counters (0 when there were none).
double ScanHitRatio(const snorkel::CompiledScanCacheStats& before,
                    const snorkel::CompiledScanCacheStats& after);

/// Class balance the train path estimates from the labeled dev split
/// (same rule as TrainSnapshot).
double DevClassBalance(const snorkel::RelationTask& task);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
