// End-to-end benchmark program: replays `nulpa detect` in process. It calls
// the public functions tools/nulpa_cli.cpp's cmd_detect calls, in the same
// order (parse, options and registry run, quality metrics, label write),
// times each call from outside and checks every result against the
// workload's reference run. perfbench/README.md documents the workloads and
// every metric; perfbench/run.py is the entry point that builds this file
// and generates the input with `nulpa generate`.
//
//   e2e reference --workload W --input g.mtx --labels l.txt
//   e2e detect    --workload W --input g.mtx --labels l.txt
//                 --ref-digest=H --ref-modularity=Q --ref-modeled-s=T
//                 [--corrupt-labels]
//   e2e layers    --workload W --input g.mtx --labels l.txt --seconds S
//
// `reference` runs one detect plus the workload's byte-identity invariants
// and prints what every later detect must reproduce. `detect` runs one
// detect, the only work of its process, as a one-shot `nulpa detect` does,
// and checks it against the given reference; --corrupt-labels perturbs its
// digest so a self-check can watch the oracle fire. `layers` repeats rounds
// of untraced, profiled and single-layer variant runs for S seconds and
// prints the per-layer metrics. Each command prints one JSON object as its
// last line. Exit code 1 when a check failed, 2 on usage or input errors.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "observe/profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "quality/communities.hpp"
#include "quality/metrics.hpp"
#include "quality/modularity.hpp"
#include "util/cli.hpp"

namespace {

using namespace nulpa;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// a / b, or 0 when b is 0 (a stage the workload does not run).
double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads.

/// The `nulpa detect` flags a workload stands for; nullopt when unknown.
std::optional<CommonFlags> workload_flags(std::string_view name) {
  CommonFlags f;  // CLI defaults: nulpa, serial backend, memory model on
  if (name == "social-parallel") {
    f.threads = 2;  // --threads 2, which implies --parallel-sim
    return f;
  }
  if (name == "road-sharded") {
    f.algo = "sharded";  // --algo sharded --shards 4 --track-memory false
    f.shards = 4;
    f.track_memory = false;
    return f;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One detect.

std::uint64_t label_digest(std::span<const Vertex> labels) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over the label bytes
  for (const Vertex l : labels) {
    for (int b = 0; b < 4; ++b) {
      h ^= (l >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Detect {
  double parse_s = 0.0;
  double runner_s = 0.0;
  double quality_s = 0.0;
  double write_s = 0.0;
  double detect_s = 0.0;
  RunReport report;
  Vertex communities = 0;
  double modularity = 0.0;
  double coverage = 0.0;
  double edge_cut = 0.0;
  std::uint64_t digest = 0;
};

RunReport run_algorithm(const Graph& g, const CommonFlags& flags) {
  const AlgorithmInfo* algo = find_algorithm(flags.algo);
  if (algo == nullptr) throw std::runtime_error("unknown algo " + flags.algo);
  RunOptions opts = run_options_from_flags(flags);
  apply_threads(opts.exec);
  return algo->run(g, opts);
}

/// `nulpa detect --input input --output labels_path` under `flags`, stage
/// by stage. Every stage opens a profiler span, which costs one relaxed
/// load while capture is off. `keep`, when given, receives the graph.
Detect detect(const std::string& input, const std::string& labels_path,
              const CommonFlags& flags, Graph* keep = nullptr) {
  Detect d;
  observe::ProfSpan detect_span("bench.detect");
  const auto t0 = Clock::now();
  Graph g;
  {
    observe::ProfSpan span("bench.parse");
    g = read_matrix_market_file(input);
  }
  d.parse_s = since(t0);

  auto t = Clock::now();
  {
    observe::ProfSpan span("bench.runner");
    d.report = run_algorithm(g, flags);
  }
  d.runner_s = since(t);

  t = Clock::now();
  {
    observe::ProfSpan span("bench.quality");
    d.communities = count_communities(d.report.labels);
    d.modularity = modularity(g, d.report.labels);
    d.coverage = coverage(g, d.report.labels);
    d.edge_cut = edge_cut(g, d.report.labels);
  }
  d.quality_s = since(t);

  t = Clock::now();
  {
    observe::ProfSpan span("bench.write_labels");
    std::ofstream os(labels_path);
    if (!os) throw std::runtime_error("cannot open for write: " + labels_path);
    for (std::size_t v = 0; v < d.report.labels.size(); ++v) {
      os << v << ' ' << d.report.labels[v] << '\n';
    }
    os.close();
    if (!os) throw std::runtime_error("write failed: " + labels_path);
  }
  d.write_s = since(t);
  d.detect_s = since(t0);

  d.digest = label_digest(d.report.labels);
  if (keep != nullptr) *keep = std::move(g);
  return d;
}

/// Digest of a label file as detect() writes it ("v label" per line).
std::uint64_t file_digest(const std::string& path, std::size_t n) {
  std::ifstream is(path);
  std::vector<Vertex> labels;
  labels.reserve(n);
  std::uint64_t v = 0;
  Vertex label = 0;
  while (is >> v >> label) {
    if (v != labels.size()) return 0;
    labels.push_back(label);
  }
  return labels.size() == n ? label_digest(labels) : 0;
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping.

/// What every detect of one workload must reproduce.
struct Reference {
  std::uint64_t digest = 0;
  double modularity = 0.0;
  double modeled_s = 0.0;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  }

  /// Runs `fn`; an exception counts as a failed check.
  template <typename Fn>
  void attempt(const char* what, Fn&& fn) {
    try {
      record(fn(), what);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s threw: %s\n", what, e.what());
      record(false, what);
    }
  }
};

/// Labels and modularity must match the reference exactly. Modeled time
/// may drift slightly: the memory model coalesces real host addresses, and
/// the parsed graph's arrays are not allocated at the fixed alignment the
/// engine's own device buffers get, so transaction and cache counts move
/// with heap placement.
bool reproduces(const Detect& d, const Reference& ref) {
  constexpr double kModeledTolerance = 1e-2;
  return d.digest == ref.digest && d.modularity == ref.modularity &&
         std::abs(d.report.modeled_seconds - ref.modeled_s) <=
             kModeledTolerance * ref.modeled_s;
}

/// Runs the registry algorithm alone under `flags`; returns its host
/// seconds and checks its labels against the reference digest.
double timed_run(Checks& checks, const char* what, const Graph& g,
                 const CommonFlags& flags, const Reference& ref) {
  double seconds = 0.0;
  checks.attempt(what, [&] {
    const auto t0 = Clock::now();
    const RunReport r = run_algorithm(g, flags);
    seconds = since(t0);
    return label_digest(r.labels) == ref.digest;
  });
  return seconds;
}

// ---------------------------------------------------------------------------
// Profiler spans of one traced detect.

struct SpanSums {
  double detect = 0.0;
  double parse = 0.0;
  double runner = 0.0;
  double quality = 0.0;
  double write = 0.0;
  double launch_self = 0.0;  // simt.launch minus its same-thread children
  double replay = 0.0;       // simt.replay
  double pool_job = 0.0;     // pool.job (background workers)
  double exchange = 0.0;     // exchange.barrier
};

SpanSums sum_spans(std::vector<observe::ProfSpanRecord> spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // an enclosing span sorts first
  });
  // Spans on one thread nest (they are RAII scopes), so a stack of open
  // spans finds each span's direct parent.
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    while (!open.empty() &&
           (spans[open.back()].tid != s.tid ||
            spans[open.back()].start_ns + spans[open.back()].dur_ns <=
                s.start_ns)) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(i);
  }
  SpanSums sums;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    const double dur = 1e-9 * static_cast<double>(spans[i].dur_ns);
    if (name == "bench.detect") sums.detect += dur;
    if (name == "bench.parse") sums.parse += dur;
    if (name == "bench.runner") sums.runner += dur;
    if (name == "bench.quality") sums.quality += dur;
    if (name == "bench.write_labels") sums.write += dur;
    if (name == "simt.replay") sums.replay += dur;
    if (name == "pool.job") sums.pool_job += dur;
    if (name == "exchange.barrier") sums.exchange += dur;
    if (name == "simt.launch") {
      const std::uint64_t self =
          spans[i].dur_ns - std::min(spans[i].dur_ns, child_ns[i]);
      sums.launch_self += 1e-9 * static_cast<double>(self);
    }
  }
  return sums;
}

double median_of(const std::vector<SpanSums>& xs, double SpanSums::*field) {
  std::vector<double> v;
  for (const SpanSums& x : xs) v.push_back(x.*field);
  return median(v);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Commands.

struct Workload {
  std::string name;
  CommonFlags flags;
  std::string input;
  std::string labels;
};

Workload workload_of(const CliArgs& args) {
  Workload w{args.get("workload", ""), {}, args.get("input", ""),
             args.get("labels", "")};
  const std::optional<CommonFlags> flags = workload_flags(w.name);
  if (!flags) throw std::runtime_error("unknown --workload " + w.name);
  w.flags = *flags;
  if (w.input.empty() || w.labels.empty()) {
    throw std::runtime_error("--input and --labels are required");
  }
  return w;
}

/// One detect, the process's only work, checked against the reference the
/// arguments give. Prints its stage times and the process's peak RSS.
int cmd_detect(const CliArgs& args) {
  const Workload w = workload_of(args);
  const Reference ref{std::stoull(args.get("ref-digest", "0"), nullptr, 16),
                      args.get_double("ref-modularity", 0.0),
                      args.get_double("ref-modeled-s", 0.0)};
  Detect d = detect(w.input, w.labels, w.flags);
  if (args.get_bool("corrupt-labels", false)) d.digest ^= 1;
  const bool ok = reproduces(d, ref);
  if (!ok) std::fprintf(stderr, "check failed: detect reproduces the reference\n");
  std::printf("{\"ok\": %s, \"detect_s\": %.17g, \"parse_s\": %.17g, "
              "\"edge_visits_per_s\": %.17g, \"modeled_s\": %.17g, "
              "\"peak_rss_mb\": %.17g}\n",
              ok ? "true" : "false", d.detect_s, d.parse_s,
              ratio(static_cast<double>(d.report.edges_scanned), d.runner_s),
              d.report.modeled_seconds, peak_rss_mb());
  return ok ? 0 : 1;
}

/// The reference detect, the label file read-back and the byte-identity
/// invariants. Prints what every timed detect must reproduce.
int cmd_reference(const CliArgs& args) {
  const Workload w = workload_of(args);
  Checks checks;
  Graph g;
  const Detect d = detect(w.input, w.labels, w.flags, &g);
  const RunReport& r = d.report;
  const Reference ref{d.digest, d.modularity, r.modeled_seconds};
  checks.record(r.labels.size() == g.num_vertices() &&
                    std::isfinite(ref.modularity),
                "reference run labels every vertex");
  checks.record(file_digest(w.labels, r.labels.size()) == ref.digest,
                "label file reads back as the reference labels");

  const simt::ExecPolicy exec = run_options_from_flags(w.flags).exec;
  if (exec.is_parallel()) {
    CommonFlags serial = w.flags;
    serial.parallel_sim = false;
    serial.threads = 0;
    timed_run(checks, "parallel labels equal the serial backend's", g, serial,
              ref);
  }
  if (w.flags.algo == "sharded" && w.flags.shards > 1) {
    CommonFlags one = w.flags;
    one.shards = 1;
    timed_run(checks, "sharded labels equal the 1-shard run's", g, one, ref);
  }

  std::printf("workload: %s, algo %s, %u vertices, %llu arcs\n",
              w.name.c_str(), w.flags.algo.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("reference: %d iterations, %u communities, modularity %.6f, "
              "coverage %.4f, edge cut %.1f, digest %016llx\n",
              r.iterations, d.communities, ref.modularity, d.coverage,
              d.edge_cut, static_cast<unsigned long long>(ref.digest));
  std::printf("threads: simulator %u, hardware %u\n",
              exec.is_parallel() ? exec.threads : 1u,
              std::thread::hardware_concurrency());
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"digest\": "
              "\"%016llx\", \"modularity\": %.17g, \"modeled_s\": %.17g}\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(ref.digest), ref.modularity,
              ref.modeled_s);
  return checks.failed == 0 ? 0 : 1;
}

/// Per-layer metrics: after an in-process reference detect, rounds of one
/// untraced detect, one profiled detect and the single-layer variants
/// (memory model off, serial backend, shard plan) that apply to the
/// workload, for `--seconds`.
int cmd_layers(const CliArgs& args) {
  const Workload w = workload_of(args);
  const double seconds = args.get_double("seconds", 10.0);
  const CommonFlags& f = w.flags;
  Checks checks;
  Graph g;
  const Detect ref_detect = detect(w.input, w.labels, f, &g);
  const RunReport& r = ref_detect.report;
  const Reference ref{ref_detect.digest, ref_detect.modularity,
                      r.modeled_seconds};

  const bool parallel = f.parallel_sim || f.threads > 1;
  const bool sharded = f.algo == "sharded" && f.shards > 1;
  CommonFlags track_off = f;
  track_off.track_memory = false;
  CommonFlags serial = f;
  serial.parallel_sim = false;
  serial.threads = 0;

  auto& prof = observe::ProfilerRegistry::instance();
  std::vector<SpanSums> traced;
  std::vector<double> untraced_detect, untraced_parse, untraced_quality,
      untraced_write, runner_on, runner_off, runner_serial, plan_s, pool_busy,
      coverage;
  double replication = 0.0;
  const auto start = Clock::now();
  do {
    checks.attempt("untraced detect reproduces the reference", [&] {
      const Detect d = detect(w.input, w.labels, f);
      untraced_detect.push_back(d.detect_s);
      untraced_parse.push_back(d.parse_s);
      untraced_quality.push_back(d.quality_s);
      untraced_write.push_back(d.write_s);
      runner_on.push_back(d.runner_s);
      return reproduces(d, ref);
    });
    checks.attempt("traced detect reproduces the reference", [&] {
      prof.enable();
      const Detect d = detect(w.input, w.labels, f);
      prof.disable();
      const SpanSums s = sum_spans(prof.drain());
      prof.clear();
      traced.push_back(s);
      coverage.push_back(
          ratio(s.parse + s.runner + s.quality + s.write, s.detect));
      if (parallel) {
        pool_busy.push_back(ratio(s.pool_job, f.threads * s.runner));
      }
      return reproduces(d, ref);
    });
    if (f.track_memory) {
      runner_off.push_back(timed_run(
          checks, "memory model off keeps the labels", g, track_off, ref));
    }
    if (parallel) {
      runner_serial.push_back(timed_run(
          checks, "serial backend keeps the labels", g, serial, ref));
    }
    if (sharded) {
      const auto t0 = Clock::now();
      ShardMode mode{};
      shard_mode_from_name(f.shard_mode, mode);
      const ShardPlan plan = make_shard_plan(g, f.shards, mode);
      plan_s.push_back(since(t0));
      std::size_t locals = 0;
      for (const auto& shard : plan.shards) {
        locals += shard.local_to_global.size();
      }
      replication = ratio(double(locals), double(g.num_vertices()));
    }
  } while (since(start) < seconds);

  const simt::PerfCounters& c = r.counters;
  const double edges = static_cast<double>(r.edges_scanned);
  const double on = median(runner_on);
  const double off = f.track_memory ? median(runner_off) : on;
  const double parse = median_of(traced, &SpanSums::parse);
  const double untraced = median(untraced_detect);
  std::printf("traced detects: %zu, stage coverage %.4f\n", traced.size(),
              median(coverage));
  // Disjoint parts of an untraced detect, so the shares add up to ~1.
  std::printf("shares of untraced detect_s %.4f s: parse %.3f, engine "
              "without memory model %.3f, memory model %.3f, quality %.3f, "
              "label write %.3f\n",
              untraced, ratio(median(untraced_parse), untraced),
              ratio(off, untraced), ratio(on - off, untraced),
              ratio(median(untraced_quality), untraced),
              ratio(median(untraced_write), untraced));
  print_result(checks, {
      {"graph.parse_s", parse, "s"},
      {"graph.parse_ns_per_arc",
       1e9 * ratio(parse, double(g.num_edges())), "ns"},
      {"graph.shard_plan_s", median(plan_s), "s"},
      {"graph.replication_factor", replication, "ratio"},
      {"core.engine_s", median_of(traced, &SpanSums::runner), "s"},
      {"core.iterations", double(r.iterations), "count"},
      {"core.edges_scanned", edges, "count"},
      {"core.frontier_vertices", double(c.frontier_vertices), "count"},
      {"hash.probes_per_insert",
       ratio(double(r.hash_stats.probes), double(r.hash_stats.inserts)),
       "ratio"},
      {"hash.fallbacks", double(r.hash_stats.fallbacks), "count"},
      {"simt.kernel_launches", double(c.kernel_launches), "count"},
      {"simt.fiber_switches", double(c.fiber_switches), "count"},
      {"simt.fiberless_share",
       ratio(double(c.fiberless_lanes), double(c.threads_run)), "ratio"},
      {"simt.launch_self_s", median_of(traced, &SpanSums::launch_self), "s"},
      {"simt.mem.share", f.track_memory ? 1.0 - ratio(off, on) : 0.0,
       "ratio"},
      {"simt.mem.ns_per_access",
       1e9 * ratio(on - off, double(c.tracked_accesses)), "ns"},
      {"simt.mem.txns_per_edge", ratio(double(c.global_transactions), edges),
       "ratio"},
      {"simt.mem.coalesced_ratio",
       ratio(double(c.coalesced_accesses), double(c.tracked_accesses)),
       "ratio"},
      {"simt.mem.cache_hit_ratio",
       ratio(double(c.cache_hits), double(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"simt.scoreboard.stall_ratio",
       ratio(double(c.stall_cycles), double(c.modeled_cycles)), "ratio"},
      {"simt.scoreboard.replay_s", median_of(traced, &SpanSums::replay), "s"},
      {"parallel.pool_busy_frac", median(pool_busy), "ratio"},
      {"parallel.speedup", parallel ? ratio(median(runner_serial), on) : 0.0,
       "x"},
      {"comm.exchange_s", median_of(traced, &SpanSums::exchange), "s"},
      {"comm.exchange_bytes", double(c.exchange_bytes), "B"},
      {"comm.exchanged_labels", double(c.exchanged_labels), "count"},
      {"quality.s", median_of(traced, &SpanSums::quality), "s"},
      {"cli.write_labels_s", median_of(traced, &SpanSums::write), "s"},
      {"observe.trace_overhead",
       ratio(median_of(traced, &SpanSums::detect), untraced), "x"},
      {"observe.stage_coverage", median(coverage), "ratio"},
  });
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int rc = 2;
  if (argc >= 2) {
    const std::string command = argv[1];
    const CliArgs args(argc - 1, argv + 1);
    try {
      if (command == "detect") {
        rc = cmd_detect(args);
      } else if (command == "reference") {
        rc = cmd_reference(args);
      } else if (command == "layers") {
        rc = cmd_layers(args);
      } else {
        std::fprintf(stderr, "e2e: unknown command %s\n", command.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e %s: %s\n", command.c_str(), e.what());
      rc = 2;
    }
  }
  // Works around, without fixing, the exit-time use-after-free between
  // pool workers and the profiler's registry: stop capture, drop the
  // spans and join every worker before static destructors run.
  auto& prof = observe::ProfilerRegistry::instance();
  prof.disable();
  prof.clear();
  ThreadPool::global().shutdown();
  return rc;
}
