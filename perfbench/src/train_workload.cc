// `train`: the Figure 2 train path with Algorithm 1, end to end. One
// operation is one ExportSnapshot (apply LFs -> optimizer and structure
// learning -> generative fit -> discriminative fit -> LFCP compile -> save)
// over the full CDR analog. Every execution gets a fresh copy of the corpus,
// so the process-wide scan cache cannot answer for an earlier execution.
//
// The traced run alternates ExportSnapshot with a staged copy of the same
// path that calls each module's public functions under its own timer. The
// checks run on what ExportSnapshot wrote: every timed execution's snapshot
// must equal the warm-up's byte for byte, and so must a staged execution's,
// which supplies the in-memory model and Λ the checks compare against. The
// exported file itself is then loaded and served.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "bench_common.h"
#include "checks.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "pipeline/export_snapshot.h"
#include "serve/label_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace snorkel;

/// The CDR task every run trains on, whatever its --seed. Tasks generated at
/// different seeds differ in size (7066-7281 candidates) and in how many
/// correlations structure learning keeps, which moved run medians by ~12%
/// between seed sets; a fixed task leaves only the program's own variance.
constexpr uint64_t kTrainTaskSeed = 42;

/// One execution of the train path, stage by stage. Mirrors TrainSnapshot
/// (pipeline/export_snapshot.cc) call for call.
struct StagedTrain {
  Status status;
  LabelMatrix matrix;  // Λ over every candidate.
  GenerativeModel gen;
  std::string snapshot_bytes;
  std::map<std::string, double> stage_ms;
  double total_ms = 0.0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

class StageTimer {
 public:
  StageTimer(std::map<std::string, double>* stages, const char* name)
      : stages_(stages), name_(name), start_(NowSeconds()) {}
  ~StageTimer() { (*stages_)[name_] += (NowSeconds() - start_) * 1e3; }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  std::map<std::string, double>* stages_;
  const char* name_;
  double start_;
};

StagedTrain RunStaged(const RelationTask& task,
                      const ExportSnapshotOptions& options,
                      const std::string& path) {
  StagedTrain out;
  auto& st = out.stage_ms;
  const double start = NowSeconds();
  {
    StageTimer t(&st, "lf.apply_ms");
    LFApplier applier(LFApplier::Options{options.num_threads, 2});
    auto matrix = applier.Apply(task.lfs, task.corpus, task.candidates);
    if (!matrix.ok()) {
      out.status = matrix.status();
      return out;
    }
    out.matrix = std::move(matrix).value();
  }
  LabelMatrix train_matrix = out.matrix.SelectRows(task.train_idx);
  std::vector<CorrelationPair> correlations;
  {
    StageTimer t(&st, "core.optimizer_ms");
    ModelingStrategyOptimizer optimizer(options.optimizer);
    auto decision = optimizer.Choose(train_matrix);
    if (!decision.ok()) {
      out.status = decision.status();
      return out;
    }
    if (decision->strategy == ModelingStrategy::kGenerativeModel) {
      correlations = decision->correlations;
    }
  }
  GenerativeModelOptions gen_options = options.gen;
  gen_options.class_balance = DevClassBalance(task);
  out.gen = GenerativeModel(gen_options);
  {
    StageTimer t(&st, "core.gen_fit_ms");
    out.status = out.gen.Fit(train_matrix, correlations);
    if (!out.status.ok()) return out;
  }
  auto snapshot = ModelSnapshot::Capture(out.gen, task.lfs.Names(),
                                         task.lfs.Fingerprints());
  if (!snapshot.ok()) {
    out.status = snapshot.status();
    return out;
  }
  std::vector<double> train_probs;
  {
    StageTimer t(&st, "core.predict_ms");
    train_probs = out.gen.PredictProba(train_matrix, false);
  }
  TextFeaturizer featurizer(options.features);
  std::vector<FeatureVector> features;
  std::vector<double> soft_labels;
  {
    StageTimer t(&st, "disc.featurize_ms");
    constexpr double kNeutralBand = 0.02;  // As in TrainSnapshot.
    for (size_t r = 0; r < task.train_idx.size(); ++r) {
      if (train_matrix.row(r).empty()) continue;
      if (std::fabs(train_probs[r] - 0.5) <= kNeutralBand) continue;
      const size_t i = task.train_idx[r];
      CandidateView view(&task.corpus, &task.candidates[i], i);
      features.push_back(featurizer.Featurize(view));
      soft_labels.push_back(train_probs[r]);
    }
  }
  {
    StageTimer t(&st, "disc.fit_ms");
    LogisticRegressionClassifier disc(options.disc);
    out.status = disc.Fit(features, featurizer.num_buckets(), soft_labels);
    if (!out.status.ok()) return out;
    out.status = snapshot->AttachDiscModel(disc, featurizer.num_buckets());
    if (!out.status.ok()) return out;
  }
  {
    StageTimer t(&st, "lf.compile_ms");
    auto program = CompileLfSet(task.lfs);
    if (program->num_compiled() > 0) {
      snapshot->compiled_lfs = std::move(program);
    }
  }
  {
    StageTimer t(&st, "serve.snapshot_save_ms");
    out.status = SaveSnapshot(*snapshot, path);
    if (!out.status.ok()) return out;
  }
  out.total_ms = (NowSeconds() - start) * 1e3;
  {
    // Not on the train path: the cost a server pays to load the artifact.
    StageTimer t(&st, "serve.snapshot_load_ms");
    auto loaded = LoadSnapshot(path);
    if (!loaded.ok()) out.status = loaded.status();
  }
  out.snapshot_bytes = ReadFile(path);
  return out;
}

/// The train path's output checks: Λ and the posteriors of a staged
/// execution, and the snapshot ExportSnapshot wrote to `export_path`, served.
void CheckTrainOutputs(const RelationTask& task, const StagedTrain& staged,
                       const std::string& export_path, RunResult* result) {
  // Λ against direct LF calls.
  const std::vector<CandidateRef> rows = MakeCandidateRefs(task.candidates);
  result->Check(CheckVotes(staged.matrix,
                           DirectVotes(task.lfs, task.corpus, rows),
                           rows.size(), task.lfs.size()));
  // Class symmetry and rows without votes.
  const std::vector<double> p = staged.gen.PredictProba(staged.matrix, false);
  const std::vector<double> p_neg =
      staged.gen.PredictProba(Negated(staged.matrix), false);
  result->Check(CheckClassSymmetry(p, p_neg));
  result->Check(CheckNoVoteRows(staged.matrix, p, 0.5, 0.0));
  const std::vector<double> p_prior =
      staged.gen.PredictProba(staged.matrix, true);
  result->Check(
      CheckNoVoteRows(staged.matrix, p_prior, staged.gen.class_balance(),
                      kPriorTolerance));
  // The exported snapshot, loaded, serves the in-memory model's posteriors.
  auto service = LabelService::FromFile(export_path, task.lfs);
  if (!service.ok()) {
    result->Check("loading the exported snapshot: " +
                  service.status().ToString());
    return;
  }
  LabelRequest request;
  request.corpus = &task.corpus;
  request.candidates = &task.candidates;
  auto response = service->Label(request);
  if (!response.ok()) {
    result->Check("serving the exported snapshot: " +
                  response.status().ToString());
    return;
  }
  result->Check(CheckResponse(*response, p_prior, task.candidates.size()));
}

}  // namespace

RunResult RunTrain(const RunConfig& config) {
  RunResult result;
  auto task = MakeCdrTask(kTrainTaskSeed, 1.0);
  if (!task.ok()) {
    result.Check("task generation: " + task.status().ToString());
    return result;
  }
  const double base_rss = ResidentMb();
  const size_t n = task->candidates.size();
  std::fprintf(stderr, "train: CDR seed %llu, %zu candidates, %zu LFs\n",
               static_cast<unsigned long long>(kTrainTaskSeed), n,
               task->lfs.size());

  ExportSnapshotOptions options;
  options.use_optimizer = true;
  const std::string export_path = config.out_dir + "/train_export.snk";
  const std::string staged_path = config.out_dir + "/train_staged.snk";

  // Warm-up execution: thread pools, the process-wide compiled-program memo
  // and allocator arenas, which a long-lived trainer pays once. Its snapshot
  // is the one every later execution must reproduce.
  std::string exported;
  {
    RelationTask copy = FreshCopy(*task);
    Status warm = ExportSnapshot(copy, options, export_path);
    if (!warm.ok()) {
      result.Check("warm-up execution: " + warm.ToString());
      return result;
    }
    exported = ReadFile(export_path);
  }
  const double setup_s = NowSeconds() - config.process_start;

  std::vector<double> export_ms;
  std::vector<double> export_cpu_s;
  std::map<std::string, std::vector<double>> stages;
  std::vector<double> staged_total_ms;
  std::vector<double> staged_unattributed_ms;
  StagedTrain last_staged;
  bool have_staged = false;
  double peak_mb = 0.0;
  const CompiledScanCacheStats scan_before = GetCompiledScanCacheStats();
  const double loop_start = NowSeconds();
  for (size_t k = 0; NowSeconds() - loop_start < config.seconds; ++k) {
    RelationTask copy = FreshCopy(*task);
    ++result.attempted;
    if (config.trace && k % 2 == 1) {
      StagedTrain staged = RunStaged(copy, options, staged_path);
      if (!staged.status.ok()) {
        ++result.failed;
        continue;
      }
      double attributed = 0.0;
      for (const auto& [name, ms] : staged.stage_ms) {
        stages[name].push_back(ms);
        if (name != "serve.snapshot_load_ms") attributed += ms;
      }
      result.Check(CheckBytesEqual(staged.snapshot_bytes, exported,
                                   "staged snapshot vs ExportSnapshot's"));
      staged_total_ms.push_back(staged.total_ms);
      staged_unattributed_ms.push_back(staged.total_ms - attributed);
      last_staged = std::move(staged);
      have_staged = true;
      continue;
    }
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    Status status = ExportSnapshot(copy, options, export_path);
    const double c1 = ProcessCpuSeconds();
    const double t1 = NowSeconds();
    if (!status.ok()) {
      ++result.failed;
      std::fprintf(stderr, "ExportSnapshot failed: %s\n",
                   status.ToString().c_str());
      continue;
    }
    export_ms.push_back((t1 - t0) * 1e3);
    export_cpu_s.push_back(c1 - c0);
    // Read after the same two executions (warm-up and this one) in every
    // run: the high-water mark creeps up with each further execution, so a
    // reading at the end would grow with the number that fit in the run.
    if (export_ms.size() == 1) peak_mb = PeakResidentMb() - base_rss;
    result.Check(CheckBytesEqual(ReadFile(export_path), exported,
                                 "ExportSnapshot vs its warm-up snapshot"));
  }
  const CompiledScanCacheStats scan_after = GetCompiledScanCacheStats();

  // Output checks. A staged execution over a fresh copy supplies Λ and the
  // in-memory model; its snapshot must be ExportSnapshot's byte for byte,
  // so the checks speak of the timed path's output.
  RelationTask check_copy = FreshCopy(*task);
  if (!have_staged) {
    last_staged = RunStaged(check_copy, options, staged_path);
    if (!last_staged.status.ok()) {
      result.Check("staged execution: " + last_staged.status.ToString());
    } else {
      result.Check(CheckBytesEqual(last_staged.snapshot_bytes, exported,
                                   "staged snapshot vs ExportSnapshot's"));
    }
  }
  if (last_staged.status.ok()) {
    CheckTrainOutputs(check_copy, last_staged, export_path, &result);
  }

  const double train_ms = Median(export_ms);
  result.Set("setup_s", setup_s);
  result.Set("mem_mb", peak_mb);
  result.Set("latency_ms", train_ms);
  result.Set("throughput_cps", train_ms > 0 ? n / (train_ms / 1e3) : 0.0);
  result.Set("cpu_us_per_cand", Median(export_cpu_s) * 1e6 / n);
  std::fprintf(stderr, "train: %zu executions, median %.1f ms\n",
               export_ms.size(), train_ms);

  if (config.trace) {
    for (const auto& [name, values] : stages) {
      result.Set(name, Median(values));
    }
    result.Set("serve.snapshot_bytes",
               static_cast<double>(last_staged.snapshot_bytes.size()));
    // Time of a staged execution that none of its timed stages covers.
    result.Set("train.unattributed_ms", Median(staged_unattributed_ms));
    result.Set("lf.compiled.scan_hit_ratio",
               ScanHitRatio(scan_before, scan_after));
    const double staged_ms = Median(staged_total_ms);
    result.Set("obs.trace_overhead_pct",
               train_ms > 0 ? (staged_ms - train_ms) / train_ms * 100.0 : 0.0);
  }
  return result;
}

}  // namespace perfbench
