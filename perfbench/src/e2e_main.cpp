// End-to-end benchmark of ideobf: one workload for --seconds, every output
// checked, the end-to-end metrics printed as the last line (JSON).
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s>
//                 [--ideobf <ideobf CLI>] [--data <data dir>] [--work <dir>]
//   perfbench_e2e --self-test
//
// Usually run through perfbench/run.py, which builds it first.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", error.c_str());
    return 2;
  }
  try {
    if (args.self_test) {
      const auto blind = perfbench::checker_self_test(args);
      for (const auto& b : blind) std::printf("self-test FAILED: %s\n", b.c_str());
      if (blind.empty()) std::printf("self-test ok: every check rejected its corrupted output\n");
      return blind.empty() ? 0 : 1;
    }
    const perfbench::RunResult r = perfbench::run_workload(args, nullptr);
    const double n = static_cast<double>(r.attempted);
    std::printf(
        "raw: setup_s=%.4f ms_per_script=%.4f latency_p50_ms=%.4f "
        "latency_p99_ms=%.4f samples=%zu\n",
        r.setup_raw_s, r.busy_raw_s * 1000.0 / n,
        perfbench::percentile_ms(r.latency_raw_ms, 0.50),
        perfbench::percentile_ms(r.latency_raw_ms, 0.99),
        r.latency_raw_ms.size());
    std::printf("reference: median_chunk_ms=%.4f chunks=%zu norm=%.4f\n",
                r.ref_ms, r.ref_chunks, r.norm);
    std::printf("checks: generator_faults=%zu\n", r.generator_faults);
    perfbench::print_result(
        r, {{"setup_s", {r.setup_norm_s, "s"}},
            {"ms_per_script", {r.busy_norm_s * 1000.0 / n, "ms"}},
            {"latency_p50_ms",
             {perfbench::percentile_ms(r.latency_norm_ms, 0.50), "ms"}},
            {"latency_p99_ms",
             {perfbench::percentile_ms(r.latency_norm_ms, 0.99), "ms"}},
            {"peak_rss_mb", {r.peak_rss_mb, "MB"}},
            {"iocs_recovered",
             {static_cast<double>(r.iocs_recovered), "count"}}});
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
