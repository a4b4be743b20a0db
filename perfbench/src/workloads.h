#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <utility>
#include <vector>

#include "bench_common.h"

namespace perfbench {

/// End-to-end metrics (name, unit) every workload reports on an untraced
/// run. What each one times depends on the workload (see README.md).
inline const std::vector<std::pair<const char*, const char*>>
    kEndToEndMetrics = {
        {"setup_s", "s"},
        {"mem_mb", "MB"},
        {"latency_ms", "ms"},
        {"throughput_cps", "cand/s"},
        {"cpu_us_per_cand", "us/cand"},
};

/// Per-layer metrics (name, unit) every traced run reports. A layer the
/// workload never calls reads 0.
inline const std::vector<std::pair<const char*, const char*>>
    kPerLayerMetrics = {
        {"lf.apply_ms", "ms"},
        {"lf.compile_ms", "ms"},
        {"lf.interpreted_column_ms", "ms"},
        {"lf.compiled.scan_hit_ratio", "ratio"},
        {"core.optimizer_ms", "ms"},
        {"core.gen_fit_ms", "ms"},
        {"core.predict_ms", "ms"},
        {"core.lf_summary_ms", "ms"},
        {"disc.featurize_ms", "ms"},
        {"disc.fit_ms", "ms"},
        {"serve.snapshot_save_ms", "ms"},
        {"serve.snapshot_load_ms", "ms"},
        {"serve.snapshot_bytes", "bytes"},
        {"serve.relabel_floor_ms", "ms"},
        {"serve.columns_reused_ratio", "ratio"},
        {"serve.label_ms", "ms"},
        {"serve.local_cps", "cand/s"},
        {"serve.local_cpu_us_per_cand", "us/cand"},
        {"serve.p99_ms", "ms"},
        {"net.router_placement_ms", "ms"},
        {"net.request_encode_ms", "ms"},
        {"net.client_send_ms", "ms"},
        {"net.client_recv_ms", "ms"},
        {"net.client_decode_ms", "ms"},
        {"net.server_decode_ms", "ms"},
        {"net.server_intern_ms", "ms"},
        {"net.server_queue_wait_ms", "ms"},
        {"net.server_label_ms", "ms"},
        {"net.server_encode_ms", "ms"},
        {"net.request_bytes_per_cand", "bytes/cand"},
        {"net.response_bytes_per_cand", "bytes/cand"},
        {"service.lf_apply_ms", "ms"},
        {"service.inference_ms", "ms"},
        {"edit.cycle_ms", "ms"},
        {"train.unattributed_ms", "ms"},
        {"serve.unattributed_ms", "ms"},
        {"obs.trace_overhead_pct", "%"},
};

RunResult RunTrain(const RunConfig& config);
RunResult RunEditLoop(const RunConfig& config);
RunResult RunServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
