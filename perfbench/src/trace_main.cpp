// Traced run of the ideobf benchmark: the same workloads as perfbench_e2e,
// with every call into a layer's public functions timed from outside the
// engine, printed as a per-layer table and, as the last line, JSON.
//
//   perfbench_trace --workload <name> --seed <n> --seconds <s> [...]
//
// Rounds alternate untraced / traced. In traced rounds the built-in
// front-ends are replaced, through FrontendRegistry::register_frontend, by
// wrappers that time each phase call (self time: nested calls made through
// the multilayer recursion are subtracted); the texts entering the token
// pass are lexed and parsed again after the call to time the lexer and the
// parser on their own. Serve rounds sample the daemon's `server_trace`
// breakdown and time the wire functions on the same lines. trace_overhead is
// the traced rounds' ms/script over the untraced rounds'.
//
// This program reaches into src/ and may need updating when an internal
// function changes; perfbench_e2e does not.

#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "frontends/frontend.h"
#include "frontends/js_frontend.h"
#include "frontends/ps_frontend.h"
#include "frontends/registry.h"
#include "psast/ast.h"
#include "psast/parser.h"
#include "pslang/lexer.h"
#include "server/protocol.h"

namespace {

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

enum Layer { kTokenPass, kRecovery, kMultilayer, kRename, kReformat, kSyntax, kLayers };
const char* const kLayerNames[kLayers] = {"token_pass", "recovery", "multilayer",
                                          "rename",     "reformat", "syntax"};

/// Spans of the traced in-process calls. The in-process workloads call the
/// engine from one thread, so no locking.
struct Collector {
  bool on = false;
  struct Frame {
    Clock::time_point start;
    double child = 0.0;
  };
  std::vector<Frame> stack;
  double self_s[kLayers] = {};
  double out_bytes[kLayers] = {};
  std::uint64_t calls[kLayers] = {};
  std::uint64_t edits = 0;
  std::vector<std::string> token_inputs;  ///< texts entering the token pass

  void push() { stack.push_back({Clock::now(), 0.0}); }
  void pop(Layer layer, std::size_t out_size) {
    const Frame f = stack.back();
    stack.pop_back();
    const double dur = since(f.start);
    self_s[layer] += dur - f.child;
    if (!stack.empty()) stack.back().child += dur;
    out_bytes[layer] += static_cast<double>(out_size);
    ++calls[layer];
  }
};

int token_edits(const ideobf::TokenPassStats& s) {
  return s.ticks_removed + s.aliases_expanded + s.case_normalized;
}

/// Times every phase call of the wrapped front-end.
class TimedFrontend final : public ideobf::LanguageFrontend {
 public:
  TimedFrontend(std::shared_ptr<const ideobf::LanguageFrontend> inner,
                Collector& c)
      : inner_(std::move(inner)), c_(c) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] bool syntax_ok(std::string_view text) const override {
    c_.push();
    const bool ok = inner_->syntax_ok(text);
    c_.pop(kSyntax, 0);
    return ok;
  }
  [[nodiscard]] std::string token_pass(std::string_view text,
                                       ideobf::TokenPassStats& stats,
                                       ideobf::TraceSink* trace) const override {
    c_.token_inputs.emplace_back(text);
    const int before = token_edits(stats);
    c_.push();
    std::string out = inner_->token_pass(text, stats, trace);
    c_.pop(kTokenPass, out.size());
    c_.edits += static_cast<std::uint64_t>(token_edits(stats) - before);
    return out;
  }
  [[nodiscard]] std::string recovery_pass(std::string_view text,
                                          const ideobf::FrontendPhaseContext& ctx,
                                          ideobf::RecoveryStats& stats,
                                          ideobf::TraceSink* trace) const override {
    c_.push();
    std::string out = inner_->recovery_pass(text, ctx, stats, trace);
    c_.pop(kRecovery, out.size());
    return out;
  }
  [[nodiscard]] std::string unwrap_layers(std::string_view text,
                                          const ideobf::FrontendPhaseContext& ctx,
                                          ideobf::MultilayerStats& stats,
                                          ideobf::TraceSink* trace,
                                          const Recurse& recurse) const override {
    c_.push();
    std::string out = inner_->unwrap_layers(text, ctx, stats, trace, recurse);
    c_.pop(kMultilayer, out.size());
    return out;
  }
  [[nodiscard]] std::string rename_pass(std::string_view text,
                                        ideobf::RenameStats& stats,
                                        ideobf::TraceSink* trace) const override {
    c_.push();
    std::string out = inner_->rename_pass(text, stats, trace);
    c_.pop(kRename, out.size());
    return out;
  }
  [[nodiscard]] std::string reformat_pass(std::string_view text) const override {
    c_.push();
    std::string out = inner_->reformat_pass(text);
    c_.pop(kReformat, out.size());
    return out;
  }
  [[nodiscard]] double sniff(std::string_view source) const override {
    return inner_->sniff(source);
  }
  [[nodiscard]] std::size_t memo_language_salt() const override {
    return inner_->memo_language_salt();
  }

 private:
  std::shared_ptr<const ideobf::LanguageFrontend> inner_;
  Collector& c_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
// Every per-layer metric, in BENCHMARK.json order. Metrics of a layer a
// workload does not reach read 0 (README: per-layer table).
const MetricSpec kMetrics[] = {
    {"lex.ms", "ms"},           {"lex.calls", "count/script"},
    {"lex.mb_per_s", "MB/s"},   {"parse.ms", "ms"},
    {"parse.calls", "count/script"}, {"parse.nodes", "count/script"},
    {"token_pass.ms", "ms"},    {"token_pass.edits", "count/script"},
    {"recovery.ms", "ms"},      {"recovery.pieces", "count/script"},
    {"recovery.pieces_failed", "count/script"}, {"memo.hit_rate", "ratio"},
    {"multilayer.ms", "ms"},    {"multilayer.layers", "count/script"},
    {"rename.ms", "ms"},        {"reformat.ms", "ms"},
    {"syntax.ms", "ms"},        {"other.ms", "ms"},
    {"passes", "count/script"}, {"ir_bytes.input", "bytes"},
    {"ir_bytes.token_pass", "bytes"}, {"ir_bytes.recovery", "bytes"},
    {"ir_bytes.multilayer", "bytes"}, {"ir_bytes.rename", "bytes"},
    {"ir_bytes.reformat", "bytes"}, {"sniff.us", "us"},
    {"js.ms", "ms"},            {"wire.ms", "ms"},
    {"queue.ms", "ms"},         {"engine.ms", "ms"},
    {"cache.hit_rate", "ratio"}, {"cache_hit.ms", "ms"},
    {"frame_parse.us", "us"},   {"render.us", "us"},
    {"rung.0", "count/round"},  {"rung.1", "count/round"},
    {"rung.2", "count/round"},  {"rung.3", "count/round"},
    {"overrun.max_ratio", "ratio"}, {"hostile.ms", "ms"},
    {"trace_overhead", "ratio"},
};

class LayerTracer final : public perfbench::Tracer {
 public:
  void set_traced(bool traced) override {
    c_.on = traced;
    if (traced) ++traced_rounds_;
    auto& reg = ideobf::FrontendRegistry::instance();
    if (traced) {
      Collector* c = &c_;
      reg.register_frontend(
          "powershell", [c](const ideobf::Options&, std::shared_ptr<ps::ParseCache> pc) {
            return std::make_shared<TimedFrontend>(ideobf::make_ps_frontend(std::move(pc)), *c);
          });
      reg.register_frontend(
          "javascript", [c](const ideobf::Options&, std::shared_ptr<ps::ParseCache>) {
            return std::make_shared<TimedFrontend>(ideobf::make_js_frontend(), *c);
          });
    } else {
      reg.register_frontend(
          "powershell", [](const ideobf::Options&, std::shared_ptr<ps::ParseCache> pc) {
            return ideobf::make_ps_frontend(std::move(pc));
          });
      reg.register_frontend(
          "javascript", [](const ideobf::Options&, std::shared_ptr<ps::ParseCache>) {
            return ideobf::make_js_frontend();
          });
    }
  }

  void begin_op() override {
    if (!c_.on) return;
    c_.token_inputs.clear();
    parse_before_ = ps::parse_call_count();
  }

  void end_op(const perfbench::Op& op, const ideobf::Response& r,
              double wall) override {
    if (!c_.on) return;
    parse_calls_ += ps::parse_call_count() - parse_before_;
    ++ops_;
    wall_s_ += wall;
    passes_ += r.report.passes;
    pieces_ += r.report.recovery.pieces_recovered;
    pieces_failed_ += r.report.recovery.pieces_failed;
    memo_hits_ += r.report.recovery.memo_hits;
    memo_lookups_ += r.report.recovery.memo_hits + r.report.recovery.memo_misses;
    layers_ += r.report.multilayer.layers_unwrapped;
    input_bytes_ += static_cast<double>(op.request.source.size());
    count_rung(r.report.degradation_rung);
    if (op.hostile) {
      hostile_ms_.push_back(wall * 1000.0);
      max_overrun_ = std::max(
          max_overrun_, wall * 1000.0 / static_cast<double>(op.request.deadline_ms));
    }
    // The lexer and the parser on their own, on the texts this op's token
    // passes saw (outside the op's wall time).
    for (const std::string& text : c_.token_inputs) {
      auto t0 = Clock::now();
      bool ok = true;
      const ps::TokenStream tokens = ps::tokenize_lenient(text, ok);
      lex_s_ += since(t0);
      lex_bytes_ += static_cast<double>(text.size());
      ++lex_calls_;
      t0 = Clock::now();
      const ps::ParsedScript parsed = ps::try_parse(text);
      parse_s_ += since(t0);
      if (parsed) parsed->post_order([this](const ps::Ast&) { ++nodes_; });
    }
  }

  void prepare_wire(ideobf::Request& request, std::size_t pos) override {
    // One request in eight carries the server_trace opt-in; those bypass the
    // shared cache, so the cache figures come from the other seven.
    if (pos % 8 == 0) request.server_trace = true;
  }

  void end_reply(const perfbench::Op& op, const ideobf::ServeReply& reply,
                 double rtt) override {
    const std::lock_guard<std::mutex> lock(mu_);
    count_rung(reply.response.report.degradation_rung);
    ++ops_;
    wall_s_ += rtt;
    if (reply.server_trace.present) {
      queue_s_ += reply.server_trace.queue_seconds;
      engine_s_ += reply.server_trace.engine_seconds;
      ++server_traced_;
      return;
    }
    ++cache_lookups_;
    if (reply.cached) {
      ++cache_hits_;
      cache_hit_s_ += rtt;
      return;
    }
    wire_s_ += rtt - reply.response.seconds;
    ++wire_n_;
    if (op.js >= 0) {
      js_s_ += reply.response.seconds;
      ++js_n_;
    }
  }

  void finish(const perfbench::Inputs& in, double norm) override {
    set_traced(false);
    norm_ = norm;
    if (!is_serve_) return;
    // Wire functions and the sniffer, timed on the round's distinct requests.
    ideobf::Engine engine;
    std::unordered_set<std::string> seen;
    double frame_s = 0.0, render_s = 0.0, sniff_s = 0.0;
    std::uint64_t frames = 0, renders = 0, sniffs = 0;
    for (const perfbench::Op& op : in.round) {
      if (!seen.insert(op.request.source).second) continue;
      const std::string line = ideobf::server::render_request_line(op.request);
      ideobf::server::WireRequest wr;
      std::string error;
      auto t0 = Clock::now();
      for (int i = 0; i < 16; ++i) {
        (void)ideobf::server::parse_request_line(line, wr, error);
      }
      frame_s += since(t0);
      frames += 16;
      t0 = Clock::now();
      for (int i = 0; i < 16; ++i) (void)ideobf::sniff_language(op.request.source);
      sniff_s += since(t0);
      sniffs += 16;
      if (renders < 64 * 16) {
        const ideobf::Response resp = engine.handle(op.request);
        t0 = Clock::now();
        for (int i = 0; i < 16; ++i) {
          (void)ideobf::server::render_response_line(resp);
        }
        render_s += since(t0);
        renders += 16;
      }
    }
    frame_us_ = frames ? frame_s * 1e6 / frames : 0.0;
    render_us_ = renders ? render_s * 1e6 / renders : 0.0;
    sniff_us_ = sniffs ? sniff_s * 1e6 / sniffs : 0.0;
  }

  /// Per-layer metrics, name -> value.
  std::map<std::string, double> metrics() const {
    std::map<std::string, double> m;
    const double ops = ops_ > 0 ? static_cast<double>(ops_) : 1.0;
    const double ms = 1000.0 * norm_;  // seconds -> normalised ms
    auto per_op_ms = [&](double s) { return s * ms / ops; };
    auto mean = [](double sum, std::uint64_t n) { return n ? sum / n : 0.0; };
    double layer_sum = 0.0;
    for (int l = 0; l < kLayers; ++l) {
      m[std::string(kLayerNames[l]) + ".ms"] = per_op_ms(c_.self_s[l]);
      layer_sum += c_.self_s[l];
      if (l != kSyntax) {
        m[std::string("ir_bytes.") + kLayerNames[l]] =
            mean(c_.out_bytes[l], c_.calls[l]);
      }
    }
    m["lex.ms"] = per_op_ms(lex_s_);
    m["lex.calls"] = lex_calls_ / ops;
    m["lex.mb_per_s"] = lex_s_ > 0 ? lex_bytes_ / 1e6 / (lex_s_ * norm_) : 0.0;
    m["parse.ms"] = per_op_ms(parse_s_);
    m["parse.calls"] = parse_calls_ / ops;
    m["parse.nodes"] = nodes_ / ops;
    m["token_pass.edits"] = c_.edits / ops;
    m["recovery.pieces"] = pieces_ / ops;
    m["recovery.pieces_failed"] = pieces_failed_ / ops;
    m["memo.hit_rate"] = mean(static_cast<double>(memo_hits_), memo_lookups_);
    m["multilayer.layers"] = layers_ / ops;
    m["other.ms"] = is_serve_ ? 0.0 : per_op_ms(wall_s_ - layer_sum);
    m["passes"] = passes_ / ops;
    m["ir_bytes.input"] = input_bytes_ / ops;
    m["sniff.us"] = sniff_us_ * norm_;
    m["js.ms"] = mean(js_s_, js_n_) * ms;
    m["wire.ms"] = mean(wire_s_, wire_n_) * ms;
    m["queue.ms"] = mean(queue_s_, server_traced_) * ms;
    m["engine.ms"] = mean(engine_s_, server_traced_) * ms;
    m["cache.hit_rate"] = mean(static_cast<double>(cache_hits_), cache_lookups_);
    m["cache_hit.ms"] = mean(cache_hit_s_, cache_hits_) * ms;
    m["frame_parse.us"] = frame_us_ * norm_;
    m["render.us"] = render_us_ * norm_;
    const double rounds = traced_rounds_ ? traced_rounds_ : 1.0;
    for (int k = 0; k < 4; ++k) m["rung." + std::to_string(k)] = rungs_[k] / rounds;
    m["overrun.max_ratio"] = max_overrun_;
    m["hostile.ms"] = perfbench::percentile_ms(hostile_ms_, 0.5) * norm_;
    return m;
  }

  void set_serve(bool serve) { is_serve_ = serve; }

 private:
  void count_rung(int rung) {
    if (rung >= 0 && rung < 4) ++rungs_[rung];
  }

  Collector c_;
  std::mutex mu_;  // end_reply runs on the serve client threads
  bool is_serve_ = false;
  double norm_ = 1.0;
  std::uint64_t traced_rounds_ = 0, ops_ = 0;
  std::uint64_t parse_before_ = 0;
  double parse_calls_ = 0, passes_ = 0, pieces_ = 0, pieces_failed_ = 0,
         layers_ = 0, nodes_ = 0, lex_calls_ = 0, input_bytes_ = 0;
  std::uint64_t memo_hits_ = 0, memo_lookups_ = 0;
  double wall_s_ = 0, lex_s_ = 0, parse_s_ = 0, lex_bytes_ = 0;
  double rungs_[4] = {};
  std::vector<double> hostile_ms_;
  double max_overrun_ = 0.0;
  double queue_s_ = 0, engine_s_ = 0, wire_s_ = 0, js_s_ = 0, cache_hit_s_ = 0;
  std::uint64_t server_traced_ = 0, cache_lookups_ = 0, cache_hits_ = 0,
                wire_n_ = 0, js_n_ = 0;
  double frame_us_ = 0, render_us_ = 0, sniff_us_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error) || args.self_test) {
    std::fprintf(stderr, "perfbench_trace: %s\n",
                 args.self_test ? "--self-test is perfbench_e2e's" : error.c_str());
    return 2;
  }
  try {
    LayerTracer tracer;
    tracer.set_serve(args.workload == "serve_mixed");
    const perfbench::RunResult r = perfbench::run_workload(args, &tracer);
    std::map<std::string, double> m = tracer.metrics();
    const double untraced =
        r.untraced_ops ? r.untraced_busy_norm_s / r.untraced_ops : 0.0;
    const double traced = r.traced_ops ? r.traced_busy_norm_s / r.traced_ops : 0.0;
    m["trace_overhead"] = untraced > 0.0 ? traced / untraced : 0.0;
    std::printf("reference: median_chunk_ms=%.4f chunks=%zu norm=%.4f\n", r.ref_ms,
                r.ref_chunks, r.norm);
    std::printf("%-24s %14s  %s\n", "per-layer metric", "value", "unit");
    std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
    for (const MetricSpec& spec : kMetrics) {
      const double v = m.count(spec.name) ? m.at(spec.name) : 0.0;
      std::printf("%-24s %14.4f  %s\n", spec.name, v, spec.unit);
      out.push_back({spec.name, {v, spec.unit}});
    }
    perfbench::print_result(r, out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
