// `serve`: fresh traffic along the serve path, request -> router -> wire ->
// server queue -> LF apply -> inference -> reply.
//
// Requests are 256-candidate batches cut from a pool of CDR corpora
// generated with distinct seeds. Every pool corpus stays alive for the whole
// run and no candidate set or document slice is sent twice to the same
// receiver, so neither a server's corpus intern table, the process-wide
// scan cache nor a column cache can answer a repeat (the cache-hit path
// belongs to edit_loop). Timing starts after a warm-up on other, distinct
// corpora that fills the process-wide scan cache to its byte budget and the
// servers' intern tables.
//
//   phase 1: 2 closed-loop callers into one in-process LabelService
//            (num_threads = 1), one pass over the pool;
//   phase 2: the same loop through a default RemoteShardRouter over two
//            loopback ShardServers (1 worker, service.num_threads = 1 each),
//            hosted in this process, for the rest of the run. Its passes cut
//            the pool at other offsets, so every batch is a new set.
//
// The end-to-end metrics describe phase 2. Every response of both phases
// is checked afterwards against an interpreted, uncached LFApplier plus the
// generative model restored from the saved snapshot.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench_common.h"
#include "checks.h"
#include "lf/compiled/engine.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "pipeline/export_snapshot.h"
#include "serve/label_service.h"
#include "shard/partitioner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace snorkel;

/// The deployment (LF set, knowledge base, snapshot) is one fixed CDR task;
/// --seed varies the traffic. Serving cost moves with the LF set's
/// knowledge base, so a per-seed deployment widened the spread across seeds
/// (one seed's deployment served ~20% slower on every run) without adding a
/// regime the pool does not already cover.
constexpr uint64_t kServingTaskSeed = 42;
constexpr size_t kBatchRows = 256;
constexpr int kCallers = 2;
/// Pool size: one pass of phase 1 (~1 s on a 4-core host) at ~6.7 MB each.
constexpr size_t kPoolCorpora = 36;
/// Warm-up corpora: at least kMinWarmCorpora, then until the scan cache
/// has evicted (is at its byte budget), at most kMaxWarmCorpora.
constexpr size_t kMinWarmCorpora = 4;
constexpr size_t kMaxWarmCorpora = 64;
/// Phase-2 passes prepared; each covers the pool once at its own offset.
constexpr size_t kFleetPasses = 24;
/// Throughput window (see WindowedCps).
constexpr double kWindowS = 0.5;
/// mem_mb is read when the fleet has answered this many requests, so that
/// it covers the same traffic in every run: the column caches keep every
/// fresh request's columns until their budgets fill, and a peak read at the
/// end of the run would grow with the run's throughput.
constexpr size_t kMemProbeRequests = 1000;

struct PoolCorpus {
  Corpus corpus;
  std::vector<Candidate> candidates;
};

/// One request: rows [start, start + kBatchRows) of pool corpus `corpus`,
/// reported to the LFs as indices 0..255 (as an owned batch would be).
struct BatchRef {
  uint32_t corpus = 0;
  uint32_t start = 0;
};

std::vector<CandidateRef> RowsOf(const std::vector<Candidate>& candidates,
                                 uint32_t start) {
  std::vector<CandidateRef> rows(kBatchRows);
  for (size_t i = 0; i < kBatchRows; ++i) {
    rows[i] = CandidateRef{&candidates[start + i], i};
  }
  return rows;
}

void AppendPass(const std::vector<const PoolCorpus*>& corpora, size_t offset,
                std::vector<BatchRef>* schedule) {
  for (size_t c = 0; c < corpora.size(); ++c) {
    for (size_t s = offset; s + kBatchRows <= corpora[c]->candidates.size();
         s += kBatchRows) {
      schedule->push_back(
          BatchRef{static_cast<uint32_t>(c), static_cast<uint32_t>(s)});
    }
  }
}

struct Served {
  BatchRef batch;
  double start_s = 0.0;  // Relative to the phase start.
  double latency_ms = 0.0;
  LabelResponse response;
};

struct PhaseResult {
  std::vector<Served> served;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  size_t candidates = 0;
  std::vector<obs::Span> spans;
  /// PeakResidentMb() when the `probe_at`-th request was answered, or at
  /// the end of the phase if it never was.
  double probe_peak_mb = 0.0;
};

using LabelFn = std::function<Result<LabelResponse>(
    const Corpus&, const std::vector<CandidateRef>&)>;

/// Closed loop: kCallers threads each send their next request once the
/// previous one answered, walking `schedule` in order until it is exhausted
/// or `budget_s` has passed. With `trace_blocks`, the budget is cut into
/// four blocks and tracing is on in the 2nd and 4th; the spans are drained
/// as the run goes. `probe_at` (0 = none) sets when probe_peak_mb is read.
PhaseResult RunClosedLoop(
    const std::vector<BatchRef>& schedule,
    const std::vector<const PoolCorpus*>& corpora, const LabelFn& label,
    double budget_s, bool trace_blocks, size_t probe_at = 0) {
  PhaseResult out;
  std::atomic<size_t> next{0};
  std::atomic<size_t> answered{0};
  bool probed = false;  // Written by the caller that answers request probe_at.
  std::vector<PhaseResult> per_caller(kCallers);
  const double start = NowSeconds();
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      PhaseResult& mine = per_caller[t];
      for (;;) {
        const double now = NowSeconds();
        if (now - start >= budget_s) break;
        const size_t k = next.fetch_add(1);
        if (k >= schedule.size()) break;
        const BatchRef b = schedule[k];
        const PoolCorpus& pc = *corpora[b.corpus];
        const std::vector<CandidateRef> rows = RowsOf(pc.candidates, b.start);
        ++mine.attempted;
        const double t0 = NowSeconds();
        auto response = label(pc.corpus, rows);
        const double t1 = NowSeconds();
        if (!response.ok()) {
          ++mine.failed;
          continue;
        }
        mine.served.push_back(Served{b, t0 - start, (t1 - t0) * 1e3,
                                     std::move(response).value()});
        if (answered.fetch_add(1) + 1 == probe_at) {
          out.probe_peak_mb = PeakResidentMb();
          probed = true;
        }
      }
    });
  }
  if (trace_blocks) {
    const double block = budget_s / 4;
    bool running = true;
    while (running) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double elapsed = NowSeconds() - start;
      obs::SetTracingEnabled(static_cast<int>(elapsed / block) % 2 == 1 &&
                             elapsed < budget_s);
      auto spans = obs::CollectSpans(0, /*drain=*/true);
      out.spans.insert(out.spans.end(), std::make_move_iterator(spans.begin()),
                       std::make_move_iterator(spans.end()));
      running = elapsed < budget_s && next.load() < schedule.size();
    }
    obs::SetTracingEnabled(false);
  }
  for (auto& th : callers) th.join();
  out.wall_s = NowSeconds() - start;
  if (!probed) out.probe_peak_mb = PeakResidentMb();
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  if (trace_blocks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto spans = obs::CollectSpans(0, /*drain=*/true);
    out.spans.insert(out.spans.end(), std::make_move_iterator(spans.begin()),
                     std::make_move_iterator(spans.end()));
  }
  for (PhaseResult& mine : per_caller) {
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    for (Served& s : mine.served) {
      out.candidates += s.response.posteriors.size();
      out.served.push_back(std::move(s));
    }
  }
  return out;
}

/// Stage means per sub-batch from the router spans, and the part of each
/// request's time that no stage on its blocking path covers.
struct Ledger {
  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> unattributed_ms;
  size_t requests = 0;
};

Ledger BuildLedger(const std::vector<obs::Span>& spans) {
  static const std::map<std::string, std::string> kStage = {
      {"client.send", "net.client_send_ms"},
      {"client.recv", "net.client_recv_ms"},
      {"client.decode", "net.client_decode_ms"},
      {"server.decode", "net.server_decode_ms"},
      {"server.intern", "net.server_intern_ms"},
      {"server.queue_wait", "net.server_queue_wait_ms"},
      {"server.label", "net.server_label_ms"},
      {"server.encode", "net.server_encode_ms"},
  };
  // Blocking path of one sub-batch (client.recv spans the server stages).
  static const char* kPath[] = {"client.send",       "server.decode",
                                "server.intern",     "server.queue_wait",
                                "server.label",      "server.encode",
                                "client.decode"};
  auto ms = [](const obs::Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  };
  std::unordered_map<uint64_t, std::vector<const obs::Span*>> by_trace;
  for (const obs::Span& s : spans) by_trace[s.trace_id].push_back(&s);

  Ledger ledger;
  for (const auto& [trace_id, trace] : by_trace) {
    const obs::Span* root = nullptr;
    const obs::Span* placement = nullptr;
    std::unordered_map<uint64_t, std::map<std::string, const obs::Span*>>
        attempts;  // attempt span id -> stage name -> span
    std::unordered_map<uint64_t, const obs::Span*> by_id;
    for (const obs::Span* s : trace) by_id[s->span_id] = s;
    for (const obs::Span* s : trace) {
      if (s->name == "router.request") root = s;
      if (s->name == "router.placement") placement = s;
      if (s->name == "router.attempt") attempts[s->span_id];
    }
    for (const obs::Span* s : trace) {
      auto it = attempts.find(s->parent_id);
      if (it != attempts.end()) it->second[s->name] = s;
      if (s->name == "service.lf_apply" || s->name == "service.inference") {
        auto parent = by_id.find(s->parent_id);
        if (parent != by_id.end() && parent->second->name == "server.label" &&
            attempts.count(parent->second->parent_id)) {
          attempts[parent->second->parent_id][s->name] = s;
        }
      }
    }
    if (root == nullptr || placement == nullptr || attempts.empty()) continue;
    bool complete = true;
    for (const auto& [id, stages] : attempts) {
      for (const char* name : kPath) complete &= stages.count(name) > 0;
      complete &= stages.count("client.recv") > 0 &&
                  stages.count("service.lf_apply") > 0 &&
                  stages.count("service.inference") > 0;
    }
    if (!complete) continue;
    ++ledger.requests;
    ledger.stage_ms["net.router_placement_ms"].push_back(ms(*placement));
    double slowest_path = 0.0;
    for (const auto& [id, stages] : attempts) {
      for (const auto& [span_name, metric] : kStage) {
        ledger.stage_ms[metric].push_back(ms(*stages.at(span_name)));
      }
      ledger.stage_ms["service.lf_apply_ms"].push_back(
          ms(*stages.at("service.lf_apply")));
      ledger.stage_ms["service.inference_ms"].push_back(
          ms(*stages.at("service.inference")));
      double path = 0.0;
      for (const char* name : kPath) path += ms(*stages.at(name));
      slowest_path = std::max(slowest_path, path);
    }
    ledger.unattributed_ms.push_back(ms(*root) - ms(*placement) - slowest_path);
  }
  return ledger;
}

/// Candidates per second in each full `window_s` window of the phase, by
/// completion time. The median of these resists a short stall on the host
/// better than one whole-phase ratio.
std::vector<double> WindowedCps(const PhaseResult& phase, double window_s) {
  const size_t windows = static_cast<size_t>(phase.wall_s / window_s);
  std::vector<double> rows(windows, 0.0);
  for (const Served& s : phase.served) {
    const size_t w =
        static_cast<size_t>((s.start_s + s.latency_ms / 1e3) / window_s);
    if (w < windows) rows[w] += s.response.posteriors.size();
  }
  for (double& r : rows) r /= window_s;
  return rows;
}

}  // namespace

RunResult RunServe(const RunConfig& config) {
  RunResult result;
  auto task = MakeCdrTask(kServingTaskSeed, 1.0);
  if (!task.ok()) {
    result.Check("task generation: " + task.status().ToString());
    return result;
  }

  // ---- Inputs: the pool. ----
  std::vector<std::unique_ptr<PoolCorpus>> pool;
  for (size_t i = 0; i < kPoolCorpora; ++i) {
    auto generated = MakeCdrTask(DeriveSeed(config.seed, 1, i), 1.0);
    if (!generated.ok()) {
      result.Check("pool generation: " + generated.status().ToString());
      return result;
    }
    pool.push_back(std::make_unique<PoolCorpus>(
        PoolCorpus{std::move(generated->corpus),
                   std::move(generated->candidates)}));
  }
  const double base_rss = ResidentMb();
  std::vector<const PoolCorpus*> pool_view;
  for (const auto& pc : pool) pool_view.push_back(pc.get());

  // ---- The serving snapshot, the in-process service and the fleet. ----
  ExportSnapshotOptions options;
  options.use_optimizer = true;
  auto snapshot = TrainSnapshot(*task, options);
  if (!snapshot.ok()) {
    result.Check("training: " + snapshot.status().ToString());
    return result;
  }
  const std::string path = config.out_dir + "/serve.snk";
  const double save0 = NowSeconds();
  if (Status saved = SaveSnapshot(*snapshot, path); !saved.ok()) {
    result.Check("saving the snapshot: " + saved.ToString());
    return result;
  }
  const double save_ms = (NowSeconds() - save0) * 1e3;
  const double load0 = NowSeconds();
  auto loaded = LoadSnapshot(path);
  const double load_ms = (NowSeconds() - load0) * 1e3;
  if (!loaded.ok()) {
    result.Check("loading the snapshot: " + loaded.status().ToString());
    return result;
  }
  auto reference_model = loaded->RestoreGenerativeModel();
  if (!reference_model.ok()) {
    result.Check("restoring the model: " + reference_model.status().ToString());
    return result;
  }
  LabelService::Options local_options;
  local_options.num_threads = 1;
  auto local = LabelService::FromFile(path, task->lfs, local_options);
  if (!local.ok()) {
    result.Check("local service: " + local.status().ToString());
    return result;
  }
  ShardServer::Options server_options;
  server_options.num_workers = 1;
  server_options.service.num_threads = 1;
  auto s0 = ShardServer::Serve(path, task->lfs, server_options);
  auto s1 = ShardServer::Serve(path, task->lfs, server_options);
  if (!s0.ok() || !s1.ok()) {
    result.Check("starting shard servers");
    return result;
  }
  auto router = RemoteShardRouter::Create(
      {{"127.0.0.1", s0->port()}, {"127.0.0.1", s1->port()}},
      RemoteShardRouter::Options{});
  if (!router.ok()) {
    result.Check("router: " + router.status().ToString());
    return result;
  }
  const LabelFn label_local = [&](const Corpus& corpus,
                                  const std::vector<CandidateRef>& rows) {
    LabelRequest request;
    request.corpus = &corpus;
    request.candidate_refs = &rows;
    return local->Label(request);
  };
  const LabelFn label_fleet = [&](const Corpus& corpus,
                                  const std::vector<CandidateRef>& rows) {
    LabelRequest request;
    request.corpus = &corpus;
    request.candidate_refs = &rows;
    return router->Label(request);
  };

  // ---- Warm-up on distinct corpora that are never sent again. ----
  const uint64_t evictions_at_start = GetCompiledScanCacheStats().evictions;
  size_t warm_corpora = 0;
  for (; warm_corpora < kMaxWarmCorpora; ++warm_corpora) {
    if (warm_corpora >= kMinWarmCorpora &&
        GetCompiledScanCacheStats().evictions > evictions_at_start) {
      break;
    }
    auto warm = MakeCdrTask(DeriveSeed(config.seed, 2, warm_corpora), 1.0);
    if (!warm.ok()) {
      result.Check("warm-up generation: " + warm.status().ToString());
      return result;
    }
    PoolCorpus pc{std::move(warm->corpus), std::move(warm->candidates)};
    std::vector<BatchRef> schedule;
    AppendPass({&pc}, 0, &schedule);
    const bool fleet = warm_corpora < kMinWarmCorpora;
    RunClosedLoop(schedule, {&pc}, fleet ? label_fleet : label_local, 1e9,
                  false);
  }
  const double setup_s = NowSeconds() - config.process_start;
  const CompiledScanCacheStats scan_before = GetCompiledScanCacheStats();
  std::fprintf(stderr,
               "serve: pool %zu corpora, warm-up %zu corpora, scan cache "
               "%.1f MB\n",
               pool.size(), warm_corpora, scan_before.bytes / 1e6);

  // ---- Phase 1: in-process. ----
  std::vector<BatchRef> local_schedule;
  AppendPass(pool_view, 0, &local_schedule);
  PhaseResult local_phase =
      RunClosedLoop(local_schedule, pool_view, label_local, 1e9, false);
  if (local_phase.served.size() + local_phase.failed != local_schedule.size()) {
    result.Check("phase 1 did not finish its pass");
  }

  // ---- Phase 2: the fleet, for the rest of the run. ----
  std::vector<BatchRef> fleet_schedule;
  for (size_t p = 0; p < kFleetPasses; ++p) {
    AppendPass(pool_view, ((p + 1) * 101) % kBatchRows, &fleet_schedule);
  }
  const double fleet_budget =
      std::max(config.seconds - local_phase.wall_s, config.seconds / 2);
  PhaseResult fleet_phase =
      RunClosedLoop(fleet_schedule, pool_view, label_fleet, fleet_budget,
                    config.trace, kMemProbeRequests);
  const CompiledScanCacheStats scan_after = GetCompiledScanCacheStats();
  const double peak_mb = fleet_phase.probe_peak_mb - base_rss;
  s0->Shutdown();
  s1->Shutdown();

  result.attempted = local_phase.attempted + fleet_phase.attempted;
  result.failed = local_phase.failed + fleet_phase.failed;

  // ---- Checks: every response of both phases against the reference. ----
  std::vector<const Served*> all;
  for (const Served& s : local_phase.served) all.push_back(&s);
  for (const Served& s : fleet_phase.served) all.push_back(&s);
  {
    std::atomic<size_t> next{0};
    std::vector<std::string> failures(4);
    std::vector<std::thread> checkers;
    for (size_t t = 0; t < failures.size(); ++t) {
      checkers.emplace_back([&, t] {
        LFApplier::Options ref_options;
        ref_options.num_threads = 1;
        ref_options.use_compiled = false;
        const LFApplier reference(ref_options);
        for (size_t k = next.fetch_add(1); k < all.size();
             k = next.fetch_add(1)) {
          const Served& s = *all[k];
          const PoolCorpus& pc = *pool[s.batch.corpus];
          auto matrix = reference.ApplyRefs(
              task->lfs, pc.corpus, RowsOf(pc.candidates, s.batch.start));
          std::string why =
              matrix.ok()
                  ? CheckResponse(s.response,
                                  reference_model->PredictProba(*matrix, true),
                                  kBatchRows)
                  : "reference apply: " + matrix.status().ToString();
          if (!why.empty() && failures[t].empty()) failures[t] = why;
        }
      });
    }
    for (auto& th : checkers) th.join();
    for (const std::string& why : failures) result.Check(why);
  }
  const size_t sent =
      (local_phase.served.size() + fleet_phase.served.size()) * kBatchRows;
  if (local_phase.candidates + fleet_phase.candidates != sent) {
    result.Check("candidates labeled differ from candidates sent");
  }

  // ---- Metrics. ----
  std::vector<double> fleet_latency;
  for (const Served& s : fleet_phase.served) {
    fleet_latency.push_back(s.latency_ms);
  }
  result.Set("setup_s", setup_s);
  result.Set("mem_mb", peak_mb);
  result.Set("latency_ms", Median(fleet_latency));
  result.Set("throughput_cps", Median(WindowedCps(fleet_phase, kWindowS)));
  result.Set("cpu_us_per_cand",
             fleet_phase.cpu_s * 1e6 / fleet_phase.candidates);
  std::fprintf(stderr,
               "serve: local %zu req %.0f cand/s; fleet %zu req %.0f cand/s "
               "p50 %.3f ms\n",
               local_phase.served.size(),
               local_phase.candidates / local_phase.wall_s,
               fleet_phase.served.size(),
               fleet_phase.candidates / fleet_phase.wall_s,
               Median(fleet_latency));

  if (config.trace) {
    std::vector<double> local_latency;
    for (const Served& s : local_phase.served) {
      local_latency.push_back(s.latency_ms);
    }
    result.Set("serve.label_ms", Mean(local_latency));
    result.Set("serve.local_cps",
               Median(WindowedCps(local_phase, kWindowS / 4)));
    result.Set("serve.local_cpu_us_per_cand",
               local_phase.cpu_s * 1e6 / local_phase.candidates);
    result.Set("serve.snapshot_save_ms", save_ms);
    result.Set("serve.snapshot_load_ms", load_ms);
    result.Set("serve.snapshot_bytes",
               static_cast<double>(SerializeSnapshot(*snapshot).size()));

    // Untraced (1st, 3rd) vs traced (2nd, 4th) blocks of phase 2.
    const double block = fleet_budget / 4;
    double cand_off = 0.0, cand_on = 0.0;
    std::vector<double> off_latency;
    for (const Served& s : fleet_phase.served) {
      const bool on = static_cast<int>(s.start_s / block) % 2 == 1;
      (on ? cand_on : cand_off) += s.response.posteriors.size();
      if (!on) off_latency.push_back(s.latency_ms);
    }
    const double off_cps = cand_off / (2 * block);
    const double on_cps = cand_on / (2 * block);
    result.Set("obs.trace_overhead_pct",
               off_cps > 0 ? (off_cps - on_cps) / off_cps * 100.0 : 0.0);
    result.Set("serve.p99_ms", Quantile(off_latency, 0.99));

    const Ledger ledger = BuildLedger(fleet_phase.spans);
    for (const auto& [name, values] : ledger.stage_ms) {
      result.Set(name, Mean(values));
    }
    result.Set("serve.unattributed_ms", Mean(ledger.unattributed_ms));
    std::fprintf(stderr, "serve: ledger from %zu complete traced requests\n",
                 ledger.requests);

    // Wire bytes and request encode cost of the same sub-batches the router
    // sends, through the public encoders.
    const CandidatePartitioner partitioner(2);
    std::vector<double> encode_ms;
    double request_bytes = 0.0, response_bytes = 0.0, rows = 0.0;
    for (size_t k = 0; k < fleet_phase.served.size() && k < 200; ++k) {
      const Served& s = fleet_phase.served[k];
      const PoolCorpus& pc = *pool[s.batch.corpus];
      const ShardedRefBatch parts =
          partitioner.PartitionRefs(RowsOf(pc.candidates, s.batch.start));
      for (size_t shard = 0; shard < parts.num_shards(); ++shard) {
        if (parts.shard_rows[shard].empty()) continue;
        const double e0 = NowSeconds();
        const std::string frame = EncodeFrame(EncodeLabelRequest(
            k, pc.corpus, parts.shard_rows[shard], false, true, 0));
        encode_ms.push_back((NowSeconds() - e0) * 1e3);
        request_bytes += frame.size();
        LabelResponse sub;
        for (size_t pos : parts.shard_to_request[shard]) {
          sub.posteriors.push_back(s.response.posteriors[pos]);
          sub.hard_labels.push_back(s.response.hard_labels[pos]);
        }
        response_bytes += EncodeFrame(EncodeLabelResponse(k, sub)).size();
      }
      rows += kBatchRows;
    }
    result.Set("net.request_encode_ms", Mean(encode_ms));
    result.Set("net.request_bytes_per_cand",
               rows > 0 ? request_bytes / rows : 0);
    result.Set("net.response_bytes_per_cand",
               rows > 0 ? response_bytes / rows : 0);

    result.Set("lf.compiled.scan_hit_ratio",
               ScanHitRatio(scan_before, scan_after));
  }
  return result;
}

}  // namespace perfbench
