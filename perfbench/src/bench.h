#pragma once

/// \file bench.h
/// Workloads, oracles and the timing loop shared by the end-to-end program
/// (perfbench_e2e) and the traced program (perfbench_trace).
///
/// This file and bench.cpp include only the public include/ideobf/ facade,
/// the input generators (src/corpus, src/obfuscator) and the behaviour
/// oracle (src/sandbox); CMakeLists.txt refuses anything else. Per-layer
/// timing plugs in through the Tracer hooks below.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ideobf/api.h"
#include "ideobf/client.h"

namespace perfbench {

/// Command line shared by both programs.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string ideobf_path;  ///< the `ideobf` CLI whose `serve` is driven
  std::string data_dir;     ///< the repository's data/ directory
  std::string work_dir;     ///< where the daemon's socket and cache live
  bool self_test = false;   ///< run only the checker self-test
};
/// Parses argv; on error returns false with a reason.
bool parse_args(int argc, char** argv, Args& out, std::string& error);

/// One operation of a round.
struct Op {
  ideobf::Request request;
  int truth = -1;      ///< index into Inputs::truths (PowerShell samples)
  int js = -1;         ///< index into Inputs::js_clean (JavaScript samples)
  bool hostile = false;
  int item = -1;       ///< serve_mixed: pool item (distinct source) index
};

/// A clean original and what the benchmark's own scanner finds in it.
struct Truth {
  std::string family;
  std::string original;
  std::vector<std::string> iocs;  ///< URLs and IPv4 addresses, deduplicated
  bool exempt = false;  ///< WhitespaceEncoding in the stack: unrecoverable
};

/// Everything a workload feeds the program, generated from the seed.
struct Inputs {
  std::vector<Op> round;  ///< the operations of one round, in order
  std::vector<Truth> truths;
  std::vector<std::string> js_clean;  ///< data/js/*.clean.js
  std::uint64_t digest = 0;           ///< FNV-1a over every round input
  /// Make-up of the round, printed for the README ("family.recon" -> share).
  std::map<std::string, double> makeup;
};

/// The URLs (http/https up to a quote, space or bracket) and dotted-quad
/// IPv4 addresses in `text`, deduplicated, in first-seen order.
std::vector<std::string> scan_iocs(const std::string& text);

/// Per-layer timing hooks. The end-to-end program passes none; the traced
/// program implements them from outside the engine. Rounds alternate
/// untraced / traced, announced through set_traced before each round.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void set_traced(bool traced) = 0;
  /// Around one in-process Engine call.
  virtual void begin_op() = 0;
  virtual void end_op(const Op& op, const ideobf::Response& response,
                      double wall_seconds) = 0;
  /// Serve workload, called from the client threads: may set per-request
  /// wire flags before sending, and sees every reply.
  virtual void prepare_wire(ideobf::Request& request, std::size_t pos) = 0;
  virtual void end_reply(const Op& op, const ideobf::ServeReply& reply,
                         double rtt_seconds) = 0;
  /// After the timed phase, with the run's normalisation factor.
  virtual void finish(const Inputs& inputs, double norm_factor) = 0;
};

/// What one run measured. `norm` fields are reference-normalised (README).
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  ///< first few correctness failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_raw_s = 0.0, setup_norm_s = 0.0;
  double norm = 1.0;        ///< nominal / median reference chunk of the run
  double ref_ms = 0.0;      ///< median reference chunk, raw ms
  std::size_t ref_chunks = 0;
  double busy_raw_s = 0.0, busy_norm_s = 0.0;  ///< timed work, no reference
  std::vector<double> latency_raw_ms, latency_norm_ms;
  double peak_rss_mb = 0.0;
  std::uint64_t iocs_recovered = 0;
  /// Samples whose obfuscated input already behaves unlike the original.
  std::size_t generator_faults = 0;
  /// Trace program only: work and ops of the untraced / traced rounds.
  double untraced_busy_norm_s = 0.0, traced_busy_norm_s = 0.0;
  std::uint64_t untraced_ops = 0, traced_ops = 0;
};

/// Runs `args.workload` for `args.seconds`: set-up, timed rounds with
/// interleaved reference chunks, then verification of every output.
RunResult run_workload(const Args& args, Tracer* tracer);

/// Feeds every correctness check a deliberately corrupted output and
/// returns the checks that failed to notice (empty when all did).
std::vector<std::string> checker_self_test(const Args& args);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile_ms(const std::vector<double>& samples, double p);

/// Prints the one-line JSON result the driver reads.
void print_result(const RunResult& r,
                  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                      metrics);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
