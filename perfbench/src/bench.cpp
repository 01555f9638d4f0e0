#include "bench.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "analysis/techniques.h"
#include "corpus/corpus.h"
#include "obfuscator/obfuscator.h"
#include "sandbox/sandbox.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
// Set-up is timed from here: static initialisation runs before main.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------ small helpers

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent sub-seed for one use of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(seed * 0x100000001B3ull + salt);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// A size field ("VmHWM", "VmRSS") of /proc/<pid>/status in MB (0 when
/// unreadable).
double status_mb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// --------------------------------------------------------------- reference

// A fixed mix of string building, hashing, hash-map and tree inserts, and a
// tokenizer-like scan that shares no code with the program. Slow periods on
// a shared host slow it and the workload alike, so timings are reported
// relative to it (README: normalisation). The map half reacts to memory
// contention more than the program does and the scan half less; their sum
// tracked the program best of the mixes tried.
// Median chunk time on the reference host (README: host fingerprint).
constexpr double kNominalReferenceMs = 2.3;
// Workload time between two reference chunks.
constexpr double kSliceSeconds = 0.040;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t reference_chunk() {
  std::unordered_map<std::string, std::uint64_t> table;
  std::map<std::uint64_t, std::string> tree;
  std::uint64_t x = 0x9E3779B97F4A7C15ull, h = 0;
  for (int i = 0; i < 2500; ++i) {
    const std::uint64_t r = xorshift(x);
    std::string key = "k" + std::to_string(r % 100003);
    key.append(static_cast<std::size_t>(r % 40), 'q');
    table[key] += static_cast<std::uint64_t>(i);
    if (i % 2 == 0) tree.emplace(r % 1000003, std::move(key));
  }
  for (const auto& [k, v] : table) h ^= fnv1a(k) + v;
  for (const auto& [k, v] : tree) h += k ^ v.size();

  static const char* const kWords[] = {"$var", "(",    "'str'", "+",
                                       ")",    "-join", " ",    "[char]",
                                       "0x41", ";\n",  "iex",   "`"};
  std::string text;
  for (int i = 0; i < 10000; ++i) text += kWords[xorshift(x) % 12];
  std::vector<std::string> tokens;
  for (std::size_t i = 0; i < text.size();) {
    std::size_t j = i + 1;
    const auto word = [&](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    if (word(text[i]) || text[i] == '$' || text[i] == '-') {
      while (j < text.size() && word(text[j])) ++j;
    } else if (text[i] == '\'') {
      while (j < text.size() && text[j] != '\'') ++j;
      ++j;
    }
    tokens.emplace_back(text.substr(i, std::min(j, text.size()) - i));
    i = j;
  }
  for (const std::string& t : tokens) h = fnv1a(t, h);
  return h;
}

/// Round trips of one byte between two threads over a socketpair: the
/// wake-up cost that a request through the serve daemon pays several times
/// over and that a CPU-only chunk does not see. Under heavy contention the
/// daemon's round trips slowed 4x while the CPU chunk slowed 1.4x.
class PingPong {
 public:
  PingPong() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    echo_ = std::thread([fd = fds_[1]] {
      char c = 0;
      while (::read(fd, &c, 1) == 1 && ::write(fd, &c, 1) == 1) {
      }
    });
  }
  ~PingPong() {
    ::shutdown(fds_[0], SHUT_RDWR);
    echo_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  PingPong(const PingPong&) = delete;
  PingPong& operator=(const PingPong&) = delete;

  void run(int round_trips) {
    char c = 'x';
    for (int i = 0; i < round_trips; ++i) {
      if (::write(fds_[0], &c, 1) != 1 || ::read(fds_[0], &c, 1) != 1) {
        throw std::runtime_error("reference ping-pong failed");
      }
    }
  }

 private:
  int fds_[2] = {-1, -1};
  std::thread echo_;
};
// Round trips per chunk for the serve workload, and their nominal time.
constexpr int kPingPongs = 100;
constexpr double kNominalPingPongMs = 2.0;

struct Reference {
  std::vector<double> chunk_ms;
  std::uint64_t expect = 0;
  bool consistent = true;
  PingPong* pingpong = nullptr;  ///< serve workload: part of every chunk

  [[nodiscard]] double nominal_ms() const {
    return kNominalReferenceMs + (pingpong != nullptr ? kNominalPingPongMs : 0.0);
  }
  void run_chunk() {
    const auto t0 = Clock::now();
    const std::uint64_t h = reference_chunk();
    if (pingpong != nullptr) pingpong->run(kPingPongs);
    chunk_ms.push_back(seconds_since(t0) * 1000.0);
    if (expect == 0) expect = h;
    consistent = consistent && h == expect;
  }
  [[nodiscard]] double median_ms() const { return percentile(chunk_ms, 0.5); }
};

// ------------------------------------------------------------------ oracles

constexpr std::string_view kUrlStop = " \t\r\n'\"`()<>,;|{}[]";

std::string check_iocs(const Truth& t, const std::string& out,
                       std::uint64_t* found) {
  if (t.exempt) return {};
  for (const std::string& ioc : t.iocs) {
    if (out.find(ioc) == std::string::npos) {
      return "IOC '" + ioc + "' missing from the output";
    }
  }
  if (found != nullptr) *found += t.iocs.size();
  return {};
}

class BehaviourOracle {
 public:
  std::string check(const Truth& t, int truth_index, const std::string& out) {
    if (!same_as_original(t, truth_index, out)) {
      return "sandbox network behaviour differs from the clean original";
    }
    return {};
  }
  bool same_as_original(const Truth& t, int truth_index, const std::string& text) {
    auto it = originals_.find(truth_index);
    if (it == originals_.end()) {
      it = originals_.emplace(truth_index, sandbox_.run(t.original)).first;
    }
    return ideobf::Sandbox::same_network_behavior(it->second, sandbox_.run(text));
  }
  bool same(const std::string& a, const std::string& b) {
    return ideobf::Sandbox::same_network_behavior(sandbox_.run(a), sandbox_.run(b));
  }

 private:
  ideobf::Sandbox sandbox_;
  std::unordered_map<int, ideobf::BehaviorProfile> originals_;
};

/// One PowerShell output against its clean original: every IOC verbatim,
/// and the same sandbox network behaviour. A sample whose obfuscated input
/// already behaves unlike its original was broken by the generator
/// (CHANGES.md, FOUND); its output is held to the input's behaviour instead,
/// counted in `generator_faults`, and its IOCs are not counted.
std::string check_ps(BehaviourOracle& oracle, const Truth& t, int truth_index,
                     const std::string& input, const std::string& out,
                     std::uint64_t* found, std::size_t* generator_faults) {
  std::uint64_t n = 0;
  std::string e = check_iocs(t, out, &n);
  if (e.empty()) e = oracle.check(t, truth_index, out);
  if (e.empty()) {
    if (found != nullptr) *found += n;
    return {};
  }
  if (oracle.same_as_original(t, truth_index, input)) return e;
  if (!oracle.same(input, out)) {
    return "sandbox network behaviour differs from the input's (itself unlike "
           "the clean original)";
  }
  if (generator_faults != nullptr) ++*generator_faults;
  return {};
}

std::string check_equal(const std::string& want, const std::string& got,
                        const char* what) {
  if (want == got) return {};
  return std::string(what) + " differs (" + std::to_string(want.size()) +
         " vs " + std::to_string(got.size()) + " bytes)";
}

std::string check_hostile(const ideobf::Response& r) {
  if (r.failure == ideobf::FailureKind::None) {
    return "hostile op ended without a classified failure";
  }
  if (r.result.empty()) return "hostile op served no output";
  return {};
}

// ------------------------------------------------------------------- inputs

const std::vector<ideobf::Technique> kL1 = {
    ideobf::Technique::Ticking, ideobf::Technique::RandomCase,
    ideobf::Technique::RandomName, ideobf::Technique::Alias,
    ideobf::Technique::Whitespacing};
const std::vector<ideobf::Technique> kL2 = {
    ideobf::Technique::Concat, ideobf::Technique::Reorder,
    ideobf::Technique::Replace, ideobf::Technique::Reverse};
const std::vector<ideobf::Technique> kL3 = {
    ideobf::Technique::AsciiEncoding,  ideobf::Technique::HexEncoding,
    ideobf::Technique::OctalEncoding,  ideobf::Technique::BinaryEncoding,
    ideobf::Technique::Base64Encoding, ideobf::Technique::Bxor,
    ideobf::Technique::SecureString,   ideobf::Technique::Compress};

Truth make_truth(std::string family, std::string original,
                 const std::vector<ideobf::Technique>& stack) {
  Truth t;
  t.family = std::move(family);
  t.iocs = scan_iocs(original);
  t.original = std::move(original);
  t.exempt = std::find(stack.begin(), stack.end(),
                       ideobf::Technique::WhitespaceEncoding) != stack.end();
  return t;
}

/// Whether the outermost layer is invoked as
/// `$ExecutionContext.InvokeCommand.(<expr>)(...)`: a dynamic member name on
/// the InvokeScript layer, which the deobfuscator leaves wrapped (CHANGES.md,
/// FOUND). Such samples are left out so that every operation passes its
/// checks; each round counts how many were skipped.
bool dynamic_invokescript_layer(const std::string& text) {
  std::string lower(text.substr(0, 64));
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const std::string head = "$executioncontext.";
  if (lower.rfind(head, 0) != 0) return false;
  std::size_t i = head.size();
  while (i < lower.size() && (std::isalnum(static_cast<unsigned char>(lower[i])) ||
                              lower[i] == '`' || lower[i] == '_')) {
    ++i;
  }
  return lower.compare(i, 2, ".(") == 0;
}

/// Generator samples in fixed numbers: `per_family` of every family, split
/// across four classes in the generator's expected shares — plain 83.6%, one
/// invocation layer 8.4%, two layers 3.6%, and the SpecialCharEncoding
/// wrapper 4.4%. The wrapper class, the costliest (it forms the latency
/// tail), is also fixed per family; the layered classes are fixed in total
/// only, since drawing them per family made set-up time swing with the seed.
/// Each class comes from a generator configured to produce it. Every
/// obfuscated text is distinct; the result is shuffled. Fixed family counts
/// make the ground-truth IOC total of a round independent of the seed.
std::vector<ideobf::Sample> stratified_samples(std::uint64_t seed,
                                               std::size_t per_family,
                                               std::size_t* left_out = nullptr) {
  const std::size_t families = ideobf::CorpusGenerator::families().size();
  const auto share = [&](double p) {
    return static_cast<std::size_t>(std::lround(per_family * p));
  };
  struct Class {
    double p_multilayer, p_specialchar;
    int layers;  ///< required sample.layers
    bool specialchar;
    std::size_t per_family;  ///< 0: a total only (`total`)
    std::size_t total;
  };
  const std::size_t sc = share(0.044);
  const Class classes[] = {
      {1.0, 0.0, 1, false, 0, share(0.084) * families},
      {1.0, 0.0, 2, false, 0, share(0.036) * families},
      {0.0, 1.0, 0, true, sc, sc * families},
      {0.0, 0.0, 0, false, per_family, 0},  // plain: fills every family up
  };
  std::unordered_set<std::string> seen;
  std::map<std::string, std::size_t> in_family;
  std::vector<ideobf::Sample> out;
  std::uint64_t class_seed = seed;
  for (const Class& c : classes) {
    ideobf::CorpusOptions opts;
    opts.p_multilayer = c.p_multilayer;
    opts.p_specialchar_wrapper = c.p_specialchar;
    ideobf::CorpusGenerator gen(class_seed = splitmix(class_seed), opts);
    const bool plain = c.layers == 0 && !c.specialchar;
    const std::size_t want = plain ? per_family * families - out.size() : c.total;
    std::map<std::string, std::size_t> taken;
    for (std::size_t done = 0; done < want;) {
      ideobf::Sample s = gen.generate();
      const bool has_sc =
          std::find(s.techniques.begin(), s.techniques.end(),
                    ideobf::Technique::SpecialCharEncoding) != s.techniques.end();
      if (s.layers != c.layers || has_sc != c.specialchar ||
          in_family[s.family] >= per_family ||
          (c.per_family != 0 && taken[s.family] >= c.per_family) ||
          !seen.insert(s.obfuscated).second) {
        continue;
      }
      if (dynamic_invokescript_layer(s.obfuscated)) {
        if (left_out != nullptr) ++*left_out;
        continue;
      }
      ++taken[s.family];
      ++in_family[s.family];
      ++done;
      out.push_back(std::move(s));
    }
  }
  std::mt19937_64 rng(seed ^ 0x51A7u);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// One campaign mutation: the clean script re-obfuscated with a fresh
/// Obfuscator seed. The technique stack is a function of the mutation's
/// index (an L2 x L3 cycle, then an optional second L2 and one or two L1),
/// so every seed gets the same technique mix and only the obfuscator's own
/// random choices differ.
std::string campaign_variant(const std::string& clean, std::uint64_t seed,
                             std::size_t index,
                             std::vector<ideobf::Technique>& stack) {
  ideobf::Obfuscator obf(seed);
  std::string s = clean;
  auto use = [&](ideobf::Technique t) {
    std::string next = obf.apply(t, s);
    if (next != s) {
      s = std::move(next);
      stack.push_back(t);
    }
  };
  use(kL2[index % kL2.size()]);
  use(kL3[(index / kL2.size()) % kL3.size()]);
  if (index % 3 == 0) use(kL2[(index / 3) % kL2.size()]);
  use(kL1[index % kL1.size()]);
  if (index % 2 == 1) use(kL1[(index / 2) % kL1.size()]);
  return s;
}

void finish_inputs(Inputs& in) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Op& op : in.round) {
    h = fnv1a(op.request.source, h);
    h = fnv1a(op.request.language, h);
    h = fnv1a(std::to_string(op.request.deadline_ms), h);
  }
  in.digest = h;
  std::unordered_set<std::string> seen;
  std::size_t repeats = 0;
  for (const Op& op : in.round) {
    if (!seen.insert(op.request.source).second) ++repeats;
  }
  in.makeup["exact_repeat"] = static_cast<double>(repeats) / in.round.size();
  for (auto& [k, v] : in.makeup) {
    if (k.rfind("family.", 0) == 0 || k.rfind("technique.", 0) == 0 ||
        k == "layered" || k == "hostile" || k == "javascript" ||
        k == "near_duplicate") {
      v /= static_cast<double>(in.round.size());
    }
  }
}

void count_stack(Inputs& in, const std::string& family,
                 const std::vector<ideobf::Technique>& stack) {
  in.makeup["family." + family] += 1;
  std::set<ideobf::Technique> uniq(stack.begin(), stack.end());
  for (ideobf::Technique t : uniq) {
    in.makeup["technique." + std::string(ideobf::to_string(t))] += 1;
  }
}

// novel_ps: 1800 distinct generator samples, 200 per family.
Inputs build_novel(std::uint64_t seed) {
  Inputs in;
  std::size_t left_out = 0;
  for (ideobf::Sample& s : stratified_samples(sub_seed(seed, 1), 200, &left_out)) {
    count_stack(in, s.family, s.techniques);
    if (s.layers > 0) in.makeup["layered"] += 1;
    Op op;
    op.request.source = s.obfuscated;
    op.truth = static_cast<int>(in.truths.size());
    in.truths.push_back(make_truth(s.family, s.original, s.techniques));
    in.round.push_back(std::move(op));
  }
  finish_inputs(in);
  in.makeup["left_out.dynamic_invokescript"] = static_cast<double>(left_out);
  return in;
}

/// `per_family` clean campaign scripts of each family, ordered by family.
/// Each is the median-sized of nine generated scripts of its family:
/// binary_dropper's random blob length otherwise makes one seed's campaigns
/// much costlier than another's.
std::vector<ideobf::Sample> campaign_cleans(std::uint64_t seed,
                                            std::size_t per_family) {
  constexpr std::size_t kDraws = 9;
  std::map<std::string, std::vector<ideobf::Sample>> by_family;
  for (ideobf::Sample& s : stratified_samples(seed, per_family * kDraws)) {
    by_family[s.family].push_back(std::move(s));
  }
  std::vector<ideobf::Sample> out;
  for (auto& [family, drawn] : by_family) {
    for (std::size_t k = 0; k < per_family; ++k) {
      const auto first = drawn.begin() + static_cast<std::ptrdiff_t>(k * kDraws);
      const auto mid = first + kDraws / 2;
      std::nth_element(first, mid, first + kDraws,
                       [](const ideobf::Sample& a, const ideobf::Sample& b) {
                         return a.original.size() < b.original.size();
                       });
      out.push_back(std::move(*mid));
    }
  }
  return out;
}

// campaign_ps: 18 campaigns (2 per family) x 100 ops: 80 fresh mutations and
// 20 exact repeats of earlier mutations of the same campaign.
Inputs build_campaign(std::uint64_t seed) {
  Inputs in;
  const auto cleans = campaign_cleans(sub_seed(seed, 2), 2);
  std::mt19937_64 rng(sub_seed(seed, 3));
  std::vector<Op> ops;
  std::vector<std::string> fams;
  for (std::size_t c = 0; c < cleans.size(); ++c) {
    in.truths.push_back(make_truth(cleans[c].family, cleans[c].original, {}));
    std::vector<std::string> variants;
    std::unordered_set<std::string> seen;
    std::uint64_t vs = sub_seed(seed, 1000 + c);
    while (variants.size() < 80) {
      std::vector<ideobf::Technique> stack;
      std::string v =
          campaign_variant(cleans[c].original, vs++, variants.size() + c, stack);
      if (!seen.insert(v).second) continue;
      count_stack(in, cleans[c].family, stack);
      variants.push_back(std::move(v));
    }
    for (std::size_t i = 0; i < 100; ++i) {
      Op op;
      op.truth = static_cast<int>(c);
      op.request.source =
          i < 80 ? variants[i] : variants[rng() % variants.size()];
      if (i >= 80) {
        // A repeat carries its original's family share.
        in.makeup["family." + cleans[c].family] += 1;
      }
      ops.push_back(std::move(op));
    }
  }
  // Technique shares above count fresh mutations only; repeats are counted
  // under exact_repeat. Shuffle, then make sure each repeat follows a fresh
  // copy of itself (a repeat placed first is simply the fresh one).
  std::shuffle(ops.begin(), ops.end(), rng);
  std::unordered_set<int> campaigns_seen;
  std::unordered_set<std::string> texts_seen;
  for (Op& op : ops) {
    const bool new_text = texts_seen.insert(op.request.source).second;
    if (new_text && !campaigns_seen.insert(op.truth).second) {
      in.makeup["near_duplicate"] += 1;
    }
    campaigns_seen.insert(op.truth);
    in.round.push_back(std::move(op));
  }
  finish_inputs(in);
  return in;
}

// hostile_governed: 396 distinct benign samples (44 per family) and 6
// hostile-builtin scripts per round, every request under a 100 ms deadline
// (benign samples stay under a quarter of it even in slow periods). The six
// hostile scripts cost about the same, 3x the deadline bound or more, so the
// p99 of a round (its 4.02nd slowest op) lies inside their group.
constexpr std::uint64_t kHostileDeadlineMs = 100;
const std::vector<std::string>& hostile_scripts() {
  // Fixed inputs, independent of the seed: each hits one governor fault.
  static const std::vector<std::string> scripts = {
      "$x = (('a' * 21) + '!') -replace '(a+)+$','x'\n",
      "$m = (('a' * 20) + '!') -match '(a+)+$'\n",
      "$p = 'a'.PadLeft(180000)\n",
      "$y = (('a' * 21) + '!') -replace '(a+)+$','y'\n",
      "$w = (('a' * 21) + '!') -replace '(a+)+$','w'\n",
      "$z = (('a' * 21) + '!') -replace '(a+)+$','z'\n",
  };
  return scripts;
}

Inputs build_hostile(std::uint64_t seed) {
  Inputs in;
  std::vector<Op> benign;
  std::size_t left_out = 0;
  for (ideobf::Sample& s : stratified_samples(sub_seed(seed, 4), 44, &left_out)) {
    count_stack(in, s.family, s.techniques);
    if (s.layers > 0) in.makeup["layered"] += 1;
    Op op;
    op.request.source = s.obfuscated;
    op.request.deadline_ms = kHostileDeadlineMs;
    op.truth = static_cast<int>(in.truths.size());
    in.truths.push_back(make_truth(s.family, s.original, s.techniques));
    benign.push_back(std::move(op));
  }
  const auto& hostile = hostile_scripts();
  const std::size_t total = benign.size() + hostile.size();
  std::size_t b = 0, h = 0;
  for (std::size_t pos = 0; pos < total; ++pos) {
    // Hostile ops sit at evenly spaced fixed positions.
    const bool take_hostile =
        h < hostile.size() &&
        pos == (2 * h + 1) * total / (2 * hostile.size());
    if (take_hostile) {
      Op op;
      op.request.source = hostile[h++];
      op.request.deadline_ms = kHostileDeadlineMs;
      op.hostile = true;
      in.makeup["hostile"] += 1;
      in.round.push_back(std::move(op));
    } else {
      in.round.push_back(benign[b++]);
    }
  }
  finish_inputs(in);
  in.makeup["left_out.dynamic_invokescript"] = static_cast<double>(left_out);
  return in;
}

// data/js samples that language "auto" resolves to PowerShell, so their
// output never equals the golden (CHANGES.md, FOUND). Left out of the stream.
const std::set<int> kMisSniffedJs = {4};

std::vector<std::string> load_js(const std::string& data_dir,
                                 std::vector<std::string>& clean) {
  std::vector<std::string> obf;
  for (int i = 0;; ++i) {
    std::string o, c;
    const std::string base = data_dir + "/js/sample_" + std::to_string(i);
    if (!slurp(base + ".obf.js", o) || !slurp(base + ".clean.js", c)) break;
    if (kMisSniffedJs.count(i) != 0) continue;
    obf.push_back(std::move(o));
    clean.push_back(std::move(c));
  }
  if (obf.empty()) {
    throw std::runtime_error("no JavaScript samples under " + data_dir +
                             "/js");
  }
  return obf;
}

// serve_mixed: a pool of 18 campaigns (2 per family) x 56 PowerShell
// mutations plus the data/js samples. A round is 2048 requests: every 16th
// is a JavaScript sample in turn, the rest are drawn zipf(1.0) over the pool
// ranks, so hot scripts repeat while the tail keeps reaching the engine
// through a shared cache smaller than the pool. The rank sequence is the
// same for every seed and rank r belongs to campaign r % 18, so the hit
// pattern and the family mix do not depend on the seed; the seed picks the
// scripts.
constexpr std::size_t kServeRound = 2048;
constexpr std::size_t kServeVariants = 56;
constexpr std::uint32_t kServeCacheSlots = 256;

Inputs build_serve(std::uint64_t seed, const std::string& data_dir) {
  Inputs in;
  const std::vector<std::string> js = load_js(data_dir, in.js_clean);
  const auto cleans = campaign_cleans(sub_seed(seed, 5), 2);
  struct Item {
    std::string source;
    int truth = -1;
    std::vector<ideobf::Technique> stack;
  };
  const std::size_t campaigns = cleans.size();
  std::vector<Item> pool(campaigns * kServeVariants);  // index = zipf rank
  for (std::size_t c = 0; c < campaigns; ++c) {
    in.truths.push_back(make_truth(cleans[c].family, cleans[c].original, {}));
    std::unordered_set<std::string> seen;
    std::uint64_t vs = sub_seed(seed, 2000 + c);
    for (std::size_t v = 0; v < kServeVariants;) {
      Item& item = pool[v * campaigns + c];
      item.stack.clear();
      item.truth = static_cast<int>(c);
      item.source =
          campaign_variant(cleans[c].original, vs++, v + c, item.stack);
      if (seen.insert(item.source).second) ++v;
    }
  }
  std::vector<double> cdf(pool.size());
  double acc = 0.0;
  for (std::size_t r = 0; r < pool.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cdf[r] = acc;
  }
  std::mt19937_64 ranks(0x5EEDu);  // fixed: the same rank sequence every run
  std::unordered_set<std::string> texts_seen;
  std::unordered_set<int> campaigns_seen;
  for (std::size_t pos = 0; pos < kServeRound; ++pos) {
    Op op;
    op.request.language = "auto";
    if (pos % 16 == 15) {
      const std::size_t j = (pos / 16) % js.size();
      op.request.source = js[j];
      op.js = static_cast<int>(j);
      op.item = static_cast<int>(pool.size() + j);
      in.makeup["javascript"] += 1;
    } else {
      const double u = std::uniform_real_distribution<double>(0.0, acc)(ranks);
      const std::size_t r = std::min<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          pool.size() - 1);
      const Item& item = pool[r];
      op.request.source = item.source;
      op.truth = item.truth;
      op.item = static_cast<int>(r);
      count_stack(in, in.truths[item.truth].family, item.stack);
      const bool new_text = texts_seen.insert(item.source).second;
      if (new_text && !campaigns_seen.insert(item.truth).second) {
        in.makeup["near_duplicate"] += 1;
      }
      campaigns_seen.insert(item.truth);
    }
    in.round.push_back(std::move(op));
  }
  finish_inputs(in);
  in.makeup["pool_items"] = static_cast<double>(pool.size() + js.size());
  return in;
}

Inputs build_inputs(const Args& args) {
  if (args.workload == "novel_ps") return build_novel(args.seed);
  if (args.workload == "campaign_ps") return build_campaign(args.seed);
  if (args.workload == "hostile_governed") return build_hostile(args.seed);
  if (args.workload == "serve_mixed") return build_serve(args.seed, args.data_dir);
  throw std::runtime_error("unknown workload '" + args.workload + "'");
}

void print_inputs(const Args& args, const Inputs& in) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(in.digest));
  std::printf("inputs: workload=%s seed=%llu ops_per_round=%zu digest=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              in.round.size(), digest);
  std::printf("makeup:");
  for (const auto& [k, v] : in.makeup) std::printf(" %s=%.4g", k.c_str(), v);
  std::printf("\n");
}

// ------------------------------------------------------------- recording

std::string op_label(const Op& op, std::size_t pos) {
  return "op " + std::to_string(pos) +
         (op.hostile ? " (hostile)" : op.js >= 0 ? " (js)" : "");
}

/// Timings of one run. Work is cut into slices of kSliceSeconds with one
/// reference chunk after each; every slice's time is normalised by the
/// median of the five chunks around it, so a change of host speed within the
/// run is tracked at that granularity.
struct Recorder {
  RunResult r;
  Reference ref;
  double since_ref = 0.0;
  struct Slice {
    double busy = 0.0, traced = 0.0, untraced = 0.0;
  };
  std::vector<Slice> slices = std::vector<Slice>(1);
  std::vector<std::uint32_t> latency_slice;
  /// In-process workloads: VmRSS sampled after every slice. Set-up leaves
  /// generator garbage whose size depends on the seed, so the process high
  /// water mark says more about the inputs than about the engine.
  bool sample_rss = false;
  double rss_max_mb = 0.0;

  void error(std::string msg) {
    r.correct = false;
    if (r.errors.size() < 8) r.errors.push_back(std::move(msg));
  }
  /// An output the oracle rejected: recorded, and its input and output
  /// written under the work directory for inspection.
  void error(const Args& args, const Op& op, std::size_t pos,
             const std::string& what, const std::string& output) {
    const std::string path = args.work_dir + "/rejected-" + args.workload +
                             "-" + std::to_string(pos) + ".txt";
    if (std::ofstream f(path, std::ios::binary); f) {
      f << "# " << what << "\n# input:\n" << op.request.source
        << "\n# output:\n" << output << "\n";
    }
    error(op_label(op, pos) + ": " + what + " (see " + path + ")");
  }

  /// Set-up ends here. It is normalised by reference chunks run right after
  /// it, outside both the set-up and the timed phase.
  void end_setup() {
    r.setup_raw_s = seconds_since(kProcessStart);
    Reference after;
    after.pingpong = ref.pingpong;
    for (int i = 0; i < 9; ++i) after.run_chunk();
    r.setup_norm_s = r.setup_raw_s * after.nominal_ms() / after.median_ms();
  }
  void latency(double ms) {
    r.latency_raw_ms.push_back(ms);
    latency_slice.push_back(static_cast<std::uint32_t>(slices.size() - 1));
  }
  void busy(double seconds, bool traced_round, bool trace_mode,
            std::uint64_t ops) {
    Slice& sl = slices.back();
    sl.busy += seconds;
    if (trace_mode) {
      (traced_round ? sl.traced : sl.untraced) += seconds;
      (traced_round ? r.traced_ops : r.untraced_ops) += ops;
    }
    since_ref += seconds;
    if (since_ref >= kSliceSeconds) {
      ref.run_chunk();
      since_ref = 0.0;
      slices.emplace_back();
      if (sample_rss) rss_max_mb = std::max(rss_max_mb, status_mb("self", "VmRSS"));
    }
  }
  void finish_reference() {
    if (slices.back().busy > 0.0) {
      ref.run_chunk();
    } else if (slices.size() > 1) {
      slices.pop_back();
    }
    if (ref.chunk_ms.empty()) ref.run_chunk();
    const std::size_t n = ref.chunk_ms.size();
    std::vector<double> factor(slices.size());
    for (std::size_t k = 0; k < slices.size(); ++k) {
      const std::size_t lo = k >= 2 ? k - 2 : 0, hi = std::min(n, k + 3);
      const std::vector<double> window(ref.chunk_ms.begin() + lo,
                                       ref.chunk_ms.begin() + hi);
      factor[k] = ref.nominal_ms() / percentile(window, 0.5);
      r.busy_raw_s += slices[k].busy;
      r.busy_norm_s += slices[k].busy * factor[k];
      r.traced_busy_norm_s += slices[k].traced * factor[k];
      r.untraced_busy_norm_s += slices[k].untraced * factor[k];
    }
    r.latency_norm_ms.resize(r.latency_raw_ms.size());
    for (std::size_t i = 0; i < r.latency_raw_ms.size(); ++i) {
      r.latency_norm_ms[i] = r.latency_raw_ms[i] * factor[latency_slice[i]];
    }
    r.ref_ms = ref.median_ms();
    r.ref_chunks = n;
    r.norm = ref.nominal_ms() / r.ref_ms;
    if (!ref.consistent) error("reference computation not deterministic");
  }
};

// --------------------------------------------------------------- in-process

enum class EngineLife { PerOp, PerRound };

void run_inprocess(const Args& args, Inputs& in, Tracer* tracer,
                   EngineLife life, Recorder& rec) {
  const std::size_t n = in.round.size();
  const double bound_ms = 1.75 * kHostileDeadlineMs + 50.0;
  std::vector<std::string> first(n);
  std::map<std::string, std::vector<double>> hostile_ms;
  std::vector<double> benign_ms;

  // Warm-up: code paths and allocator, through throwaway engines.
  {
    ideobf::Engine warm;
    for (std::size_t i = 0, done = 0; i < n && done < 32; ++i) {
      if (in.round[i].hostile) continue;
      (void)warm.handle(in.round[i].request);
      ++done;
    }
  }
  rec.end_setup();
  ::malloc_trim(0);  // hand set-up garbage back before sampling VmRSS
  rec.sample_rss = true;

  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool traced = tracer != nullptr && round % 2 == 1;
    if (tracer != nullptr) tracer->set_traced(traced);
    std::optional<ideobf::Engine> engine;
    if (life == EngineLife::PerRound) {
      const auto t0 = Clock::now();
      engine.emplace();
      rec.busy(seconds_since(t0), traced, tracer != nullptr, 0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = in.round[i];
      if (tracer != nullptr) tracer->begin_op();
      const auto t0 = Clock::now();
      ideobf::Response resp;
      if (life == EngineLife::PerOp) {
        ideobf::Engine fresh;
        resp = fresh.handle(op.request);
      } else {
        resp = engine->handle(op.request);
      }
      const double wall = seconds_since(t0);
      if (tracer != nullptr) tracer->end_op(op, resp, wall);
      rec.latency(wall * 1000.0);
      ++rec.r.attempted;
      rec.busy(wall, traced, tracer != nullptr, 1);
      if (op.hostile) {
        hostile_ms[op.request.source].push_back(wall * 1000.0);
        if (wall * 1000.0 > bound_ms) ++rec.r.failed;
        if (std::string e = check_hostile(resp); !e.empty()) {
          rec.error(op_label(op, i) + ": " + e);
        }
        continue;
      }
      if (op.request.deadline_ms > 0) benign_ms.push_back(wall * 1000.0);
      if (op.request.deadline_ms > 0 && resp.report.degradation_rung != 0) {
        rec.error(op_label(op, i) + ": benign op degraded to rung " +
                  std::to_string(resp.report.degradation_rung));
      }
      if (round == 0) {
        first[i] = std::move(resp.result);
      } else if (std::string e = check_equal(first[i], resp.result,
                                             "output of a later round");
                 !e.empty()) {
        rec.error(op_label(op, i) + ": " + e);
      }
    }
    // The trace program needs an untraced and a traced round at least.
    if (seconds_since(start) >= args.seconds &&
        (tracer == nullptr || round >= 1)) {
      break;
    }
  }
  if (tracer != nullptr) tracer->set_traced(false);
  rec.finish_reference();
  rec.r.peak_rss_mb = std::max(rec.rss_max_mb, status_mb("self", "VmRSS"));
  if (!benign_ms.empty()) {
    std::printf("benign under deadline: p99_raw_ms=%.2f max_raw_ms=%.2f deadline_ms=%llu\n",
                percentile(benign_ms, 0.99), percentile(benign_ms, 1.0),
                static_cast<unsigned long long>(kHostileDeadlineMs));
  }
  for (const auto& [script, ms] : hostile_ms) {
    std::printf("hostile: median_raw_ms=%.1f max_raw_ms=%.1f bound_ms=%.1f script=%s",
                percentile(ms, 0.5), percentile(ms, 1.0), bound_ms,
                script.c_str());
  }

  BehaviourOracle oracle;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in.round[i];
    if (op.hostile) continue;
    const std::string e =
        check_ps(oracle, in.truths[op.truth], op.truth, op.request.source,
                 first[i], &rec.r.iocs_recovered, &rec.r.generator_faults);
    if (!e.empty()) rec.error(args, op, i, e, first[i]);
  }
  if (tracer != nullptr) tracer->finish(in, rec.r.norm);
}

// -------------------------------------------------------------------- serve

/// The `ideobf serve` daemon for one run; killed and reaped on every path.
class Daemon {
 public:
  Daemon(const Args& args, unsigned threads) {
    const std::string tag = std::to_string(::getpid());
    socket_ = args.work_dir + "/s" + tag + ".sock";
    cache_ = args.work_dir + "/c" + tag + ".cache";
    log_ = args.work_dir + "/serve" + tag + ".log";
    std::remove(socket_.c_str());
    std::remove(cache_.c_str());
    const std::string th = std::to_string(threads);
    const std::string slots = std::to_string(kServeCacheSlots);
    std::vector<std::string> argv_s = {
        args.ideobf_path, "serve",        "--socket",      socket_,
        "--threads",      th,             "--cache-path",  cache_,
        "--cache-slots",  slots,          "--log-level",   "warn"};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0600);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, args.ideobf_path.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + args.ideobf_path);
    }
    const auto t0 = Clock::now();
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("ideobf serve exited during start-up; see " +
                                 log_);
      }
      try {
        ideobf::ServeClient c = ideobf::ServeClient::connect_unix(socket_);
        if (c.ready()) break;
      } catch (const std::exception&) {
      }
      if (seconds_since(t0) > 30.0) {
        throw std::runtime_error("ideobf serve not ready after 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] double peak_rss_mb() const {
    return pid_ > 0 ? status_mb(std::to_string(pid_), "VmHWM") : 0.0;
  }

  /// Graceful drain, then SIGKILL if it does not exit within 10 s.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::remove(socket_.c_str());
    std::remove(cache_.c_str());
    std::remove(log_.c_str());
  }

 private:
  pid_t pid_ = -1;
  std::string socket_, cache_, log_;
};

// Two closed-loop connections and one daemon worker thread: the worker
// always finds a request queued, so throughput is bound by the daemon's work
// rather than by thread wake-ups, whose cost on a shared host swings far more
// than CPU speed does (one connection: 0.45-1.95 raw ms/request across runs).
constexpr unsigned kServeConnections = 2;
constexpr unsigned kServeWorkers = 1;

void run_serve(const Args& args, Inputs& in, Tracer* tracer, Recorder& rec) {
  const std::size_t n = in.round.size();
  const unsigned conns = kServeConnections;
  std::printf("serve: connections=%u daemon_threads=%u cache_slots=%u\n",
              conns, kServeWorkers, kServeCacheSlots);
  Daemon daemon(args, kServeWorkers);
  PingPong pingpong;
  rec.ref.pingpong = &pingpong;

  std::vector<ideobf::ServeClient> clients;
  for (unsigned c = 0; c < conns; ++c) {
    clients.push_back(ideobf::ServeClient::connect_unix(daemon.socket()));
  }
  std::vector<std::string> first(n);
  std::vector<std::vector<double>> lat(conns);
  std::mutex err_mu;
  std::atomic<std::size_t> next{0};
  std::size_t slice_end = 0;
  bool timed = false, traced = false, stop = false;

  auto worker = [&](unsigned c, std::barrier<>& gate) {
    for (;;) {
      gate.arrive_and_wait();  // slice start
      if (stop) return;
      for (;;) {
        const std::size_t pos = next.fetch_add(1);
        if (pos >= slice_end) break;
        const Op& op = in.round[pos % n];
        ideobf::Request req = op.request;
        req.id = std::to_string(pos);
        if (tracer != nullptr && timed && traced) tracer->prepare_wire(req, pos);
        std::string err;
        const auto t0 = Clock::now();
        try {
          const ideobf::ServeReply reply = clients[c].call(req);
          const double rtt = seconds_since(t0);
          if (timed) {
            lat[c].push_back(rtt * 1000.0);
            if (tracer != nullptr && traced) tracer->end_reply(op, reply, rtt);
          }
          if (reply.status != "ok") {
            err = "reply status " + reply.status;
          } else if (pos < n) {
            first[pos] = reply.response.result;
          } else {
            err = check_equal(first[pos % n], reply.response.result,
                              "reply of a later round");
          }
        } catch (const std::exception& e) {
          err = std::string("transport: ") + e.what();
        }
        if (!err.empty()) {
          std::lock_guard<std::mutex> lock(err_mu);
          rec.error(op_label(op, pos % n) + ": " + err);
        }
      }
      gate.arrive_and_wait();  // slice end
    }
  };

  std::barrier<> gate(static_cast<std::ptrdiff_t>(conns) + 1);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back(worker, c, std::ref(gate));
  }
  constexpr std::size_t kSlice = 64;
  auto run_slice = [&](std::size_t begin) {
    next.store(begin);
    slice_end = begin + kSlice;
    const auto t0 = Clock::now();
    gate.arrive_and_wait();
    gate.arrive_and_wait();
    return seconds_since(t0);
  };

  try {
    // Warm-up: one full round fills the shared cache to its steady state and
    // records the reference outputs every later round is compared with.
    for (std::size_t s = 0; s < n; s += kSlice) (void)run_slice(s);
    rec.end_setup();
    timed = true;
    const auto start = Clock::now();
    for (std::size_t round = 1;; ++round) {
      traced = tracer != nullptr && round % 2 == 0;
      if (tracer != nullptr) tracer->set_traced(traced);
      for (std::size_t s = 0; s < n; s += kSlice) {
        const double wall = run_slice(round * n + s);
        for (std::vector<double>& v : lat) {
          for (double ms : v) rec.latency(ms);
          v.clear();
        }
        rec.busy(wall, traced, tracer != nullptr, kSlice);
        rec.r.attempted += kSlice;
      }
      if (seconds_since(start) >= args.seconds &&
          (tracer == nullptr || round >= 2)) {
        break;
      }
    }
  } catch (...) {
    stop = true;
    gate.arrive_and_drop();
    for (std::thread& t : threads) t.join();
    throw;
  }
  stop = true;
  gate.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  if (tracer != nullptr) tracer->set_traced(false);
  rec.finish_reference();
  rec.ref.pingpong = nullptr;
  rec.r.peak_rss_mb = daemon.peak_rss_mb();
  clients.clear();
  daemon.stop();

  // Every distinct request against the in-process engine, and each output
  // against the ground truth.
  ideobf::Engine engine;
  BehaviourOracle oracle;
  std::unordered_set<int> done;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in.round[i];
    if (!done.insert(op.item).second) continue;
    const ideobf::Response local = engine.handle(op.request);
    std::string e = check_equal(local.result, first[i],
                                "reply vs in-process engine result");
    if (e.empty() && op.js >= 0) {
      e = check_equal(in.js_clean[op.js], first[i], "JavaScript output vs golden");
    } else if (e.empty()) {
      e = check_ps(oracle, in.truths[op.truth], op.truth, op.request.source,
                   first[i], &rec.r.iocs_recovered, &rec.r.generator_faults);
    }
    if (!e.empty()) rec.error(args, op, i, e, first[i]);
  }
  if (tracer != nullptr) tracer->finish(in, rec.r.norm);
}

std::string fmt_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

// ------------------------------------------------------------------ public

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "novel_ps", "campaign_ps", "serve_mixed", "hostile_governed"};
  return names;
}

bool parse_args(int argc, char** argv, Args& out, std::string& error) {
  out.data_dir = "data";
  out.work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--self-test") {
      out.self_test = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      error = "missing value for " + a;
      return false;
    }
    if (a == "--workload") out.workload = v;
    else if (a == "--seed") out.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") out.seconds = std::strtod(v, nullptr);
    else if (a == "--ideobf") out.ideobf_path = v;
    else if (a == "--data") out.data_dir = v;
    else if (a == "--work") out.work_dir = v;
    else {
      error = "unknown flag " + a;
      return false;
    }
  }
  if (out.self_test) return true;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), out.workload) == names.end()) {
    error = "unknown workload '" + out.workload + "'";
    return false;
  }
  if (!(out.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  if (out.workload == "serve_mixed" && out.ideobf_path.empty()) {
    error = "serve_mixed needs --ideobf <path to the ideobf CLI>";
    return false;
  }
  return true;
}

std::vector<std::string> scan_iocs(const std::string& text) {
  std::vector<std::string> out;
  auto add = [&](std::string s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(std::move(s));
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text.compare(i, 7, "http://") == 0 || text.compare(i, 8, "https://") == 0) {
      std::size_t j = i;
      while (j < text.size() && kUrlStop.find(text[j]) == std::string_view::npos) ++j;
      add(text.substr(i, j - i));
    }
  }
  auto is_digit = [&](std::size_t k) {
    return k < text.size() && text[k] >= '0' && text[k] <= '9';
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (!is_digit(i) || (i > 0 && (is_digit(i - 1) || text[i - 1] == '.'))) {
      continue;
    }
    std::size_t j = i;
    int parts = 0;
    bool ok = true;
    while (parts < 4) {
      std::size_t k = j;
      while (is_digit(k) && k - j < 4) ++k;
      if (k == j || k - j > 3 || std::stoi(text.substr(j, k - j)) > 255) {
        ok = false;
        break;
      }
      ++parts;
      j = k;
      if (parts < 4) {
        if (j >= text.size() || text[j] != '.') {
          ok = false;
          break;
        }
        ++j;
      }
    }
    if (ok && !is_digit(j) && !(j < text.size() && text[j] == '.' && is_digit(j + 1))) {
      add(text.substr(i, j - i));
    }
  }
  return out;
}

RunResult run_workload(const Args& args, Tracer* tracer) {
  Recorder rec;
  Inputs in = build_inputs(args);
  print_inputs(args, in);
  if (args.workload == "serve_mixed") {
    run_serve(args, in, tracer, rec);
  } else {
    run_inprocess(args, in, tracer,
                  args.workload == "novel_ps" ? EngineLife::PerOp
                                              : EngineLife::PerRound,
                  rec);
  }
  for (const std::string& e : checker_self_test(args)) {
    rec.error("checker self-test: " + e);
  }
  return rec.r;
}

std::vector<std::string> checker_self_test(const Args& args) {
  std::vector<std::string> blind;
  auto expect_fail = [&](const std::string& name, const std::string& verdict) {
    if (verdict.empty()) blind.push_back(name + " accepted a corrupted output");
  };
  // A clean script is its own correct output: the checks must pass on it
  // and fail on each corruption.
  ideobf::CorpusGenerator gen(sub_seed(args.seed, 7));
  ideobf::Sample s = gen.generate();
  while (scan_iocs(s.original).empty()) s = gen.generate();
  const Truth t = make_truth(s.family, s.original, {});
  BehaviourOracle oracle;
  if (!check_iocs(t, t.original, nullptr).empty() ||
      !oracle.check(t, 0, t.original).empty()) {
    blind.push_back("PowerShell checks reject the clean original itself");
  }
  // IOC check: the first URL altered in its last character everywhere.
  std::string bad = t.original;
  std::string ioc = t.iocs.front();
  std::string mutated = ioc;
  mutated.back() = mutated.back() == 'Z' ? 'Y' : 'Z';
  for (std::size_t p; (p = bad.find(ioc)) != std::string::npos;) {
    bad.replace(p, ioc.size(), mutated);
  }
  expect_fail("IOC check", check_iocs(t, bad, nullptr));
  expect_fail("sandbox behaviour check (altered URL)", oracle.check(t, 0, bad));
  // Sandbox check alone: every IOC intact, one extra network call.
  expect_fail("sandbox behaviour check (extra request)",
              oracle.check(t, 0, t.original +
                                     "\n(New-Object Net.WebClient)."
                                     "DownloadString('http://selftest.invalid/x')\n"));
  // Behaviour check of a sample the generator broke: held to its input.
  const std::string extra_a =
      "\n(New-Object Net.WebClient).DownloadString('http://a.invalid/x')\n";
  const std::string extra_b =
      "\n(New-Object Net.WebClient).DownloadString('http://b.invalid/x')\n";
  expect_fail("behaviour check of a broken sample",
              check_ps(oracle, t, 0, t.original + extra_a,
                       t.original + extra_b, nullptr, nullptr));
  // Exact-equality checks (JS goldens, serve vs in-process, round vs round).
  expect_fail("equality check", check_equal("var a = 'x';\n", "var a = 'y';\n", "x"));
  // Hostile classification check.
  ideobf::Response unclassified;
  unclassified.result = "x";
  expect_fail("hostile check (no failure)", check_hostile(unclassified));
  ideobf::Response empty;
  empty.failure = ideobf::FailureKind::Timeout;
  expect_fail("hostile check (no output)", check_hostile(empty));
  return blind;
}

double percentile_ms(const std::vector<double>& samples, double p) {
  return percentile(samples, p);
}

void print_result(
    const RunResult& r,
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics) {
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " +
            fmt_double(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
