// `edit_loop`: the §4.1 iterate loop over a warm LF column cache. One
// operation is one edit: re-version one LF (cycling through all of them),
// wrapped as an interpreted function the way a user's edited LF is;
// re-label with IncrementalApplier and compute the LF summary (coverage,
// overlap, conflict) on dev; then refit the generative model on the train
// rows with the correlations the train path's structure learning chose
// once in set-up, and score the dev posteriors. The column cache and the
// refit run serially, on the caller's thread.
//
// latency_ms is edit -> refreshed Λ + LF summary; throughput_cps is
// candidates re-scored per second of the whole cycle (edit -> scored dev
// posteriors), whose median is also reported as edit.cycle_ms.

#include <sched.h>

#include <cstdio>
#include <map>
#include <utility>

#include "bench_common.h"
#include "checks.h"
#include "core/optimizer.h"
#include "lf/compiled/engine.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace snorkel;

/// One fixed CDR task (7250 candidates). The refit's cost moves with the
/// number of correlations structure learning picks for a task, and the
/// relabel's with the LFs' knowledge base, so a task per seed spread the
/// medians over seeds by 10-13%; the seed orders the edits instead.
constexpr uint64_t kEditTaskSeed = 42;

/// The user's edit of column `j`: same name, new version, and a body the
/// compiler cannot lower, so the edited column runs interpreted.
LabelingFunctionSet EditOne(const LabelingFunctionSet& current,
                            const LabelingFunctionSet& original, size_t j,
                            size_t version) {
  LabelingFunctionSet edited;
  for (size_t k = 0; k < current.size(); ++k) {
    if (k != j) {
      edited.Add(current.at(k));
      continue;
    }
    LabelingFunction base = original.at(j);
    edited.Add(LabelingFunction(
        base.name(), "edit-" + std::to_string(version),
        [base](const CandidateView& view) { return base.Apply(view); }));
  }
  return edited;
}

struct LfSummary {
  std::vector<double> coverage, overlap, conflict;
};

LfSummary Summarize(const LabelMatrix& dev) {
  LfSummary s;
  for (size_t j = 0; j < dev.num_lfs(); ++j) {
    s.coverage.push_back(dev.Coverage(j));
    s.overlap.push_back(dev.Overlap(j));
    s.conflict.push_back(dev.Conflict(j));
  }
  return s;
}

/// Refit on the train rows and score dev: returns the dev posteriors.
Result<std::vector<double>> RefitAndScore(
    const LabelMatrix& matrix, const RelationTask& task,
    const GenerativeModelOptions& gen_options,
    const std::vector<CorrelationPair>& correlations, double* fit_ms,
    double* predict_ms) {
  const double t0 = NowSeconds();
  GenerativeModel gen(gen_options);
  SNORKEL_RETURN_IF_ERROR(
      gen.Fit(matrix.SelectRows(task.train_idx), correlations));
  const double t1 = NowSeconds();
  std::vector<double> dev_p = gen.PredictProba(matrix.SelectRows(task.dev_idx));
  const double t2 = NowSeconds();
  if (fit_ms != nullptr) *fit_ms = (t1 - t0) * 1e3;
  if (predict_ms != nullptr) *predict_ms = (t2 - t1) * 1e3;
  return dev_p;
}

}  // namespace

RunResult RunEditLoop(const RunConfig& config) {
  RunResult result;
  auto task = MakeCdrTask(kEditTaskSeed, 1.0);
  if (!task.ok()) {
    result.Check("task generation: " + task.status().ToString());
    return result;
  }
  const double base_rss = ResidentMb();
  const size_t n = task->candidates.size();
  const size_t num_lfs = task->lfs.size();
  // The seed orders the edits (Fisher-Yates over the LF columns).
  std::vector<size_t> order(num_lfs);
  for (size_t j = 0; j < num_lfs; ++j) order[j] = j;
  for (size_t i = num_lfs; i > 1; --i) {
    std::swap(order[i - 1], order[DeriveSeed(config.seed, 3, i) % i]);
  }

  // Set-up: the train path's structure decision, made once, and a column
  // cache warmed with the full LF set.
  const ExportSnapshotOptions train_options = [] {
    ExportSnapshotOptions o;
    o.use_optimizer = true;
    return o;
  }();
  std::vector<CorrelationPair> correlations;
  {
    auto full = LFApplier().Apply(task->lfs, task->corpus, task->candidates);
    if (!full.ok()) {
      result.Check("initial apply: " + full.status().ToString());
      return result;
    }
    auto decision = ModelingStrategyOptimizer(train_options.optimizer)
                        .Choose(full->SelectRows(task->train_idx));
    if (!decision.ok()) {
      result.Check("structure learning: " + decision.status().ToString());
      return result;
    }
    if (decision->strategy == ModelingStrategy::kGenerativeModel) {
      correlations = decision->correlations;
    }
  }
  // The loop runs on the caller's thread: at HEAD the pooled generative fit
  // is both slower and far noisier than the serial one (see README.md).
  GenerativeModelOptions gen_options = train_options.gen;
  gen_options.class_balance = DevClassBalance(*task);
  gen_options.num_threads = 1;
  IncrementalApplier::Options cache_options;
  cache_options.num_threads = 1;
  IncrementalApplier cache(cache_options);
  if (auto warm = cache.Apply(task->lfs, task->corpus, task->candidates);
      !warm.ok()) {
    result.Check("warming the column cache: " + warm.status().ToString());
    return result;
  }
  LFApplier::Options interpreted_options;
  interpreted_options.use_compiled = false;
  const LFApplier interpreted(interpreted_options);
  interpreted_options.num_threads = 1;
  const LFApplier interpreted_serial(interpreted_options);
  const double setup_s = NowSeconds() - config.process_start;
  std::fprintf(stderr, "edit_loop: %zu candidates, %zu LFs, %zu correlations\n",
               n, num_lfs, correlations.size());

  std::vector<double> relabel_ms, cycle_ms, cycle_cpu_s;
  std::vector<double> traced_cycle_ms, untraced_cycle_ms;
  std::map<std::string, std::vector<double>> layer;
  uint64_t reused = 0, computed = 0;
  const CompiledScanCacheStats scan_before = GetCompiledScanCacheStats();
  LabelingFunctionSet current = task->lfs;
  // Each edit starts on the next CPU in turn. Between real edits the user
  // thinks for seconds and the loop wakes wherever the scheduler puts it;
  // a hot loop parked on one CPU instead measures that CPU's neighbours:
  // on a shared 4-vCPU host, runs parked on a quiet CPU were ~30% faster
  // than the rest, which no run length averaged away.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const double loop_start = NowSeconds();
  for (size_t step = 0; NowSeconds() - loop_start < config.seconds; ++step) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[step % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const size_t j = order[step % num_lfs];
    LabelingFunctionSet edited = EditOne(current, task->lfs, j, step);
    const bool traced = config.trace && step % 2 == 1;
    if (traced) {
      // The floor: re-labeling the unchanged, fully cached set.
      const double f0 = NowSeconds();
      auto floor = cache.Apply(current, task->corpus, task->candidates);
      layer["serve.relabel_floor_ms"].push_back((NowSeconds() - f0) * 1e3);
      // The edited LF alone, interpreted.
      LabelingFunctionSet alone;
      alone.Add(edited.at(j));
      const double i0 = NowSeconds();
      auto column =
          interpreted_serial.Apply(alone, task->corpus, task->candidates);
      layer["lf.interpreted_column_ms"].push_back((NowSeconds() - i0) * 1e3);
      if (!floor.ok() || !column.ok()) result.Check("traced relabel failed");
    }
    ++result.attempted;
    const IncrementalApplier::Stats before = cache.stats();
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    auto matrix = cache.Apply(edited, task->corpus, task->candidates);
    if (!matrix.ok()) {
      ++result.failed;
      continue;
    }
    const double s0 = NowSeconds();
    const LfSummary summary = Summarize(matrix->SelectRows(task->dev_idx));
    const double t1 = NowSeconds();
    double fit_ms = 0.0;
    double predict_ms = 0.0;
    auto dev_p = RefitAndScore(*matrix, *task, gen_options, correlations,
                               &fit_ms, &predict_ms);
    const double c2 = ProcessCpuSeconds();
    const double t2 = NowSeconds();
    if (!dev_p.ok()) {
      ++result.failed;
      continue;
    }
    const IncrementalApplier::Stats after = cache.stats();
    relabel_ms.push_back((t1 - t0) * 1e3);
    cycle_ms.push_back((t2 - t0) * 1e3);
    cycle_cpu_s.push_back(c2 - c0);
    (traced ? traced_cycle_ms : untraced_cycle_ms).push_back((t2 - t0) * 1e3);
    if (traced) {
      layer["core.lf_summary_ms"].push_back((t1 - s0) * 1e3);
      layer["core.gen_fit_ms"].push_back(fit_ms);
      layer["core.predict_ms"].push_back(predict_ms);
      reused += after.columns_reused - before.columns_reused;
      computed += after.columns_computed - before.columns_computed;
    }

    // Checks (untimed): Λ against a fresh interpreted, uncached apply, and
    // the refit against a refit on that independent matrix.
    auto fresh = interpreted.Apply(edited, task->corpus, task->candidates);
    if (!fresh.ok()) {
      result.Check("reference apply: " + fresh.status().ToString());
    } else {
      result.Check(CheckMatrixEqual(*matrix, *fresh));
      auto ref_p = RefitAndScore(*fresh, *task, gen_options, correlations,
                                 nullptr, nullptr);
      if (!ref_p.ok()) {
        result.Check("reference refit: " + ref_p.status().ToString());
      } else {
        result.Check(CheckBitwise(*dev_p, *ref_p));
      }
    }
    if (summary.coverage.size() != num_lfs) result.Check("LF summary size");
    current = std::move(edited);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  const CompiledScanCacheStats scan_after = GetCompiledScanCacheStats();
  const double peak_mb = PeakResidentMb() - base_rss;

  const double cycle = Median(cycle_ms);
  result.Set("setup_s", setup_s);
  result.Set("mem_mb", peak_mb);
  result.Set("latency_ms", Median(relabel_ms));
  result.Set("throughput_cps", cycle > 0 ? n / (cycle / 1e3) : 0.0);
  result.Set("cpu_us_per_cand", Median(cycle_cpu_s) * 1e6 / n);
  std::fprintf(stderr, "edit_loop: %zu edits, relabel %.3f ms, cycle %.3f ms\n",
               relabel_ms.size(), Median(relabel_ms), cycle);

  if (config.trace) {
    for (const auto& [name, values] : layer) result.Set(name, Median(values));
    result.Set("edit.cycle_ms", cycle);
    result.Set("serve.columns_reused_ratio",
               reused + computed > 0
                   ? static_cast<double>(reused) / (reused + computed)
                   : 0.0);
    result.Set("lf.compiled.scan_hit_ratio",
               ScanHitRatio(scan_before, scan_after));
    const double off = Median(untraced_cycle_ms);
    result.Set("obs.trace_overhead_pct",
               off > 0 ? (Median(traced_cycle_ms) - off) / off * 100.0 : 0.0);
  }
  return result;
}

}  // namespace perfbench
