#include "bench_common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

void RunResult::Check(const std::string& why) {
  if (why.empty()) return;
  correct = false;
  // Keep the log readable when one fault repeats on every operation.
  if (errors.size() < 20) errors.push_back(why);
}

double NowSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ResidentMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double PeakResidentMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux.
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t i) {
  // SplitMix64 finalizer over (seed, stream, i).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               i * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

snorkel::RelationTask FreshCopy(const snorkel::RelationTask& task) {
  snorkel::RelationTask copy;
  copy.name = task.name;
  copy.corpus = task.corpus;  // Copy construction mints a new identity.
  copy.candidates = task.candidates;
  copy.gold = task.gold;
  copy.lfs = task.lfs;
  copy.lf_groups = task.lf_groups;
  copy.ds_labels = task.ds_labels;
  copy.train_idx = task.train_idx;
  copy.dev_idx = task.dev_idx;
  copy.test_idx = task.test_idx;
  return copy;
}

double ScanHitRatio(const snorkel::CompiledScanCacheStats& before,
                    const snorkel::CompiledScanCacheStats& after) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + after.misses - before.misses;
  return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
}

double DevClassBalance(const snorkel::RelationTask& task) {
  if (task.dev_idx.empty()) return 0.5;
  double pos = 0.0;
  for (size_t i : task.dev_idx) pos += task.gold[i] > 0 ? 1.0 : 0.0;
  return std::clamp(pos / static_cast<double>(task.dev_idx.size()), 0.02,
                    0.98);
}

}  // namespace perfbench
