/**
 * @file
 * End-to-end benchmark of the Graphiti toolchain (see README.md in
 * this directory for the workloads, metrics and predictions).
 *
 * Usage:
 *     e2ebench --workload suite|farm|verify|served --seed N
 *              --seconds S --trace 0|1 [--out-dir DIR]
 *
 * The program drives the library only through its public entry
 * points and times every call from here. The last line of standard
 * output is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones;
 * with --trace 1 a separate traced run records spans around every
 * layer call and reports the per-layer metrics, and writes the spans
 * to DIR/spans-<workload>-<seed>.jsonl.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <malloc.h>
#include <unistd.h>
#include <vector>

#include "arch/area_timing.hpp"
#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "dot/dot.hpp"
#include "emit/verilog.hpp"
#include "graph/expr_low.hpp"
#include "guard/governor.hpp"
#include "guard/transaction.hpp"
#include "guard/validator.hpp"
#include "refine/refinement.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "semantics/module.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"
#include "sim/sim.hpp"
#include "static_hls/static_hls.hpp"

#include "trace.hpp"

namespace {

using namespace graphiti;
using e2e::Clock;
using e2e::msSince;
using e2e::Span;

// ---------------------------------------------------------------------
// Fixed workload parameters. Changing any of them changes the
// benchmark, not the program under test.
// ---------------------------------------------------------------------

/** gcd loops in the farm circuit: one guarded compile takes about a
 * second on a 4-core x86 machine, so the quadratic engine shows. */
constexpr int kFarmCopies = 20;
/** (a, b) pairs simulated per farm unit per operation. */
constexpr int kFarmPairs = 3;
/** Compiles of each farm size behind rewrite.doubling_ratio. */
constexpr int kDoublingRuns = 3;
/** Set-ups per run, at least this many and for at least this long
 * (teardowns included); setup_s is their median. */
constexpr int kSetups = 21;
constexpr double kSetupMinSeconds = 1.0;
/** Share of the window spent on the reference work (see Reference). */
constexpr double kReferenceShare = 0.1;
/** Reference passes an op's time is divided by: those run next. */
constexpr std::size_t kReferencePairing = 5;
/** Verifier lanes of a verify op. One lane is as fast as nproc lanes
 * on bicg and steadier on a shared host; the traced run compares the
 * two (guard.lane1_ms, guard.lanes_ms). */
constexpr std::size_t kVerifyLanes = 1;
/** served: closed-loop clients and in-thread scheduler lanes. */
constexpr std::size_t kServedClients = 3;
constexpr std::size_t kServedWorkers = 2;
/** served: the request mix of bench/bench_served.cpp at its default
 * --requests 8: each client sends one ping, then 8 verify jobs of
 * which every second repeats a cache key (bench_served repeats half
 * of its salts). A client repeats only its own keys, so the hit/miss
 * mix is fixed by the seed. The 9-request block then starts again. */
constexpr std::size_t kServedVerifyPerPing = 8;
constexpr std::size_t kServedBlock = kServedVerifyPerPing + 1;

/** The verify workload's fixed budget: default input_budget, state
 * caps small enough that a pass stays well under 1 GiB. */
guard::VerificationBudget
verifyBudget()
{
    guard::VerificationBudget budget;
    budget.max_states = 20000;
    budget.partial_max_states = 2000;
    return budget;
}

/** The served workload's tiny per-request budget (bench_served's). */
guard::VerificationBudget
servedBudget()
{
    guard::VerificationBudget budget;
    budget.max_states = 800;
    budget.partial_max_states = 300;
    budget.input_budget = 1;
    budget.trace_walks = 2;
    budget.trace.max_steps = 60;
    budget.trace.max_inputs = 2;
    return budget;
}

std::size_t
lanes()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// ---------------------------------------------------------------------
// Statistics and process figures.
// ---------------------------------------------------------------------

/** Linear-interpolation quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double>& xs)
{
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return xs.empty() ? 0.0
                      : std::exp(log_sum / static_cast<double>(xs.size()));
}

/** A /proc/self/status field in MB ("VmHWM", "VmRSS"). */
double
procStatusMb(const char* key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    std::size_t key_len = std::strlen(key);
    while (std::getline(status, line))
        if (line.compare(0, key_len, key) == 0 && line[key_len] == ':')
            return std::strtod(line.c_str() + key_len + 1, nullptr) /
                   1024.0;
    return 0.0;
}

/** Return freed heap to the system and reset VmHWM to the current
 * RSS, so the next peak is one call's. */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear.good())
        std::fprintf(stderr, "could not reset VmHWM; RSS peaks include "
                             "earlier calls\n");
}

// ---------------------------------------------------------------------
// Result document.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** A check outside the per-op ones failed (determinism, control). */
    bool extra_failure = false;
    /** Workload facts printed before the result line. */
    std::vector<Metric> details;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void
    detail(std::string name, double value, std::string unit)
    {
        details.push_back({std::move(name), value, std::move(unit)});
    }
};

void
printMetricObject(const std::vector<Metric>& metrics)
{
    std::printf("{");
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}");
}

void
printOutcome(const Outcome& out)
{
    std::printf("details: ");
    printMetricObject(out.details);
    std::printf("\n");
    bool correct = out.failed == 0 && !out.extra_failure;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": ",
                correct ? "true" : "false", out.attempted, out.failed);
    printMetricObject(out.metrics);
    std::printf("}\n");
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Reference work.
// ---------------------------------------------------------------------

/**
 * A fixed computation that does not call the library, shaped like its
 * hot paths: a string-keyed ordered map, a hash map, and a pointer
 * graph built and walked, all allocating as they go. The window runs
 * it between ops for kReferenceShare of its time. The speed of a
 * shared host drifts by tens of percent over minutes, and memory- and
 * allocation-heavy code drifts with it, so op times are reported
 * relative to this work measured in the same window.
 */
class Reference
{
public:
    /** Run the reference work until it has taken kReferenceShare of
     * the time since @p start. Called from one thread only. */
    /** Whether the reference work is behind its share of the time
     * since @p start. */
    bool
    due(Clock::time_point start) const
    {
        return busy_ms_ < kReferenceShare * msSince(start);
    }
    void
    catchUp(Clock::time_point start)
    {
        while (due(start)) {
            auto t0 = Clock::now();
            sink_ = sink_ + mapWork() + hashWork() + graphWork();
            double ms = msSince(t0);
            busy_ms_ += ms;
            starts_.push_back(t0);
            ms_.push_back(ms);
        }
    }
    /** Median time of the kReferencePairing passes that began at or
     * after @p t (the last ones, for an op at the end). */
    double
    msAfter(Clock::time_point t) const
    {
        std::size_t n = ms_.size();
        std::size_t next = static_cast<std::size_t>(
            std::lower_bound(starts_.begin(), starts_.end(), t) -
            starts_.begin());
        std::size_t first =
            std::min(next, n - std::min(n, kReferencePairing));
        std::size_t last = std::min(n, first + kReferencePairing);
        return median(std::vector<double>(ms_.begin() + first,
                                          ms_.begin() + last));
    }
    double
    medianMs() const
    {
        return median(ms_);
    }
    std::size_t
    passes() const
    {
        return ms_.size();
    }

private:
    static std::uint64_t
    xorshift(std::uint64_t& x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
    static std::uint64_t
    mapWork()
    {
        std::map<std::string, std::size_t> m;
        for (std::size_t i = 0; i < 6000; ++i)
            m["node_" + std::to_string(i * 7919 % 100003)] = i;
        std::uint64_t sum = 0;
        for (const auto& [key, value] : m)
            sum += value + key.size();
        return sum;
    }
    static std::uint64_t
    hashWork()
    {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        std::uint64_t x = 88172645463325252ULL, sum = 0;
        for (std::uint64_t i = 0; i < 40000; ++i)
            m[xorshift(x) % 50000] += i;
        for (int i = 0; i < 40000; ++i) {
            auto it = m.find(xorshift(x) % 50000);
            if (it != m.end())
                sum += it->second;
        }
        return sum;
    }
    struct Node
    {
        std::vector<Node*> out;
        std::size_t id = 0;
    };
    static std::uint64_t
    graphWork()
    {
        std::vector<std::unique_ptr<Node>> nodes;
        for (std::size_t i = 0; i < 8000; ++i) {
            nodes.push_back(std::make_unique<Node>());
            nodes.back()->id = i;
        }
        std::uint64_t x = 1469598103934665603ULL;
        for (auto& node : nodes)
            for (int e = 0; e < 3; ++e)
                node->out.push_back(nodes[xorshift(x) % nodes.size()].get());
        std::vector<char> seen(nodes.size(), 0);
        std::vector<Node*> stack = {nodes[0].get()};
        std::uint64_t sum = 0;
        while (!stack.empty()) {
            Node* n = stack.back();
            stack.pop_back();
            if (seen[n->id])
                continue;
            seen[n->id] = 1;
            sum += n->id;
            stack.insert(stack.end(), n->out.begin(), n->out.end());
        }
        return sum;
    }

    std::vector<Clock::time_point> starts_;
    std::vector<double> ms_;
    double busy_ms_ = 0.0;
    volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Operation windows.
// ---------------------------------------------------------------------

struct OpSample
{
    double ms = 0.0;
    bool ok = false;
    bool traced = false;
    Clock::time_point end;
};

struct Window
{
    std::vector<OpSample> ops;
    double seconds = 0.0;
    Reference reference;

    std::vector<double>
    latencies(int traced) const  // -1 = all, 0 = untraced, 1 = traced
    {
        std::vector<double> out;
        for (const OpSample& op : ops)
            if (traced < 0 || op.traced == (traced == 1))
                out.push_back(op.ms);
        return out;
    }
    /** Each op's time over that of the reference passes run next. */
    std::vector<double>
    relativeTimes() const
    {
        std::vector<double> out;
        for (const OpSample& op : ops)
            out.push_back(op.ms / reference.msAfter(op.end));
        return out;
    }
    std::size_t
    failures() const
    {
        return static_cast<std::size_t>(std::count_if(
            ops.begin(), ops.end(),
            [](const OpSample& op) { return !op.ok; }));
    }
};

/**
 * Run whole rounds of @p round_size ops, each round in a fresh seeded
 * order, until @p seconds have passed. Whole rounds keep the op mix
 * identical across seeds. In a traced run every other round runs with
 * tracing off, so the two halves give the tracing overhead.
 */
Window
runRounds(double seconds, std::size_t round_size, std::mt19937_64& rng,
          bool trace_mode,
          const std::function<bool(std::size_t, std::uint64_t)>& op)
{
    Window window;
    auto start = Clock::now();
    std::uint64_t op_id = 1;
    for (std::size_t round = 0;; ++round) {
        std::vector<std::size_t> order(round_size);
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        bool traced = trace_mode && round % 2 == 0;
        e2e::Tracer::threadEnabled() = traced;
        for (std::size_t index : order) {
            auto t0 = Clock::now();
            bool ok = false;
            {
                Span span("op", op_id);
                ok = op(index, op_id);
            }
            window.ops.push_back({msSince(t0), ok, traced, Clock::now()});
            ++op_id;
            window.reference.catchUp(start);
        }
        if (msSince(start) >= seconds * 1000.0)
            break;
    }
    e2e::Tracer::threadEnabled() = true;
    window.seconds = msSince(start) / 1000.0;
    return window;
}

/**
 * Median time of @p setup in seconds, over at least kSetups runs and
 * kSetupMinSeconds; @p teardown (untimed) runs between them. One
 * untimed guarded compile of the in-order gcd loop comes first, so
 * one-time initialisation inside the library is paid neither in a
 * set-up nor in the window.
 */
double
timedSetup(const std::function<void()>& setup,
           const std::function<void()>& teardown = [] {})
{
    Compiler warm;
    if (!warm.compileGraph(circuits::buildGcdInOrder()).ok())
        std::fprintf(stderr, "set-up: warm-up compile failed\n");
    std::vector<double> seconds;
    auto start = Clock::now();
    for (int i = 0;
         i < kSetups || msSince(start) < kSetupMinSeconds * 1000.0; ++i) {
        if (i > 0)
            teardown();
        auto t0 = Clock::now();
        setup();
        seconds.push_back(msSince(t0) / 1000.0);
    }
    return median(seconds);
}

void
addEndToEnd(Outcome& out, double setup_s, const Window& window)
{
    std::vector<double> ms = window.latencies(-1);
    out.add("setup_s", setup_s, "s");
    out.add("op_rel_p50", median(window.relativeTimes()), "x");
    out.add("peak_rss_mb", procStatusMb("VmHWM"), "MB");
    out.detail("ops", static_cast<double>(ms.size()), "count");
    out.detail("op_ms_p50", median(ms), "ms");
    // The highest percentile reported is one with at least ten
    // samples beyond it.
    if (ms.size() >= 100)
        out.detail("op_ms_p90", quantile(ms, 0.9), "ms");
    out.detail("ops_per_s", static_cast<double>(ms.size()) / window.seconds,
               "1/s");
    out.detail("reference_ms_p50", window.reference.medianMs(), "ms");
    out.detail("reference_passes",
               static_cast<double>(window.reference.passes()), "count");
    out.attempted += ms.size();
    out.failed += window.failures();
}

// ---------------------------------------------------------------------
// Layer calls, each wrapped in a span.
// ---------------------------------------------------------------------

bool
hasTagger(const ExprHigh& g)
{
    for (const NodeDecl& node : g.nodes())
        if (node.type == "tagger")
            return true;
    return false;
}

Result<ExprHigh>
dotRoundTrip(const ExprHigh& g, std::uint64_t op)
{
    std::string text;
    {
        Span span("dot.print", op);
        text = printDot(g);
    }
    Span span("dot.parse", op);
    return parseDot(text);
}

Result<CompileReport>
compile(Compiler& compiler, const ExprHigh& g,
        const CompileOptions& options, std::uint64_t op)
{
    Span span("core.compile", op);
    return compiler.compileGraph(g, options);
}

struct SimRun
{
    bool ok = false;
    std::size_t cycles = 0;
    sim::SimResult result;
};

SimRun
simulate(const ExprHigh& g, std::shared_ptr<FnRegistry> registry,
         const std::map<std::string, std::vector<double>>& memories,
         const std::vector<std::vector<Token>>& inputs,
         std::size_t expected_outputs, bool serial_io, std::uint64_t op)
{
    SimRun out;
    Result<sim::Simulator> built = [&] {
        Span span("sim.build", op);
        return sim::Simulator::build(g, std::move(registry));
    }();
    if (!built.ok()) {
        std::fprintf(stderr, "sim build: %s\n",
                     built.error().message.c_str());
        return out;
    }
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : memories)
        simulator.setMemory(name, data);
    Span span(hasTagger(g) ? "sim.run.tagged" : "sim.run.untagged", op);
    Result<sim::SimResult> run =
        simulator.run(inputs, expected_outputs, serial_io);
    if (!run.ok()) {
        std::fprintf(stderr, "sim run: %s\n", run.error().message.c_str());
        return out;
    }
    out.ok = true;
    out.cycles = run.value().cycles;
    out.result = run.take();
    span.setWork(static_cast<double>(out.cycles));
    return out;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9;
}

/** Simulated outputs equal the benchmark's golden values. */
bool
matchesGolden(const SimRun& run, const circuits::BenchmarkSpec& spec)
{
    if (!run.ok || run.result.outputs.empty())
        return false;
    const std::vector<Token>& stream = run.result.outputs[0];
    if (stream.size() != spec.golden.size())
        return false;
    for (std::size_t i = 0; i < stream.size(); ++i)
        if (!near(stream[i].value.toDouble(), spec.golden[i]))
            return false;
    if (!spec.golden_memory.empty()) {
        auto it = run.result.memories.find(spec.golden_memory);
        if (it == run.result.memories.end() ||
            it->second.size() != spec.golden_memory_values.size())
            return false;
        for (std::size_t i = 0; i < it->second.size(); ++i)
            if (!near(it->second[i], spec.golden_memory_values[i]))
                return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Workload inputs.
// ---------------------------------------------------------------------

struct NamedCircuit
{
    std::string name;
    ExprHigh graph;
    int num_tags = 8;
};

std::vector<circuits::BenchmarkSpec>
buildSuite()
{
    std::vector<circuits::BenchmarkSpec> out;
    for (const std::string& name : circuits::benchmarkNames())
        out.push_back(circuits::buildBenchmark(name).take());
    return out;
}

/** gcd plus the six Table-2 benchmarks, as the verify workload runs
 * them. */
std::vector<NamedCircuit>
buildVerifySet()
{
    std::vector<NamedCircuit> out;
    out.push_back({"gcd", circuits::buildGcdInOrder(), 8});
    for (circuits::BenchmarkSpec& spec : buildSuite())
        out.push_back({spec.name, std::move(spec.df_io), spec.num_tags});
    return out;
}

// ---------------------------------------------------------------------
// Layer probes of the traced run.
// ---------------------------------------------------------------------

/** Per-layer figures collected by the probes (spans give the rest). */
struct LayerFacts
{
    std::size_t rewrites_applied = 0;
    std::size_t rollbacks = 0;
    std::vector<double> postcheck_ms;
    double doubling_ratio = 0.0;
    std::size_t states = 0;
    std::size_t pairs = 0;
    double explore_ms = 0.0;
    double game_ms = 0.0;
    double explore_peak_mb = 0.0;
    double game_peak_mb = 0.0;
    double accounted_to_rss = 0.0;
    double ladder_ms = 0.0;
    double winning_rung_ms = 0.0;
    std::size_t ladders = 0;
    std::size_t full = 0;
    double lane1_ms = 0.0;
    double lanes_ms = 0.0;
    double lane1_rss_mb = 0.0;
    double lanes_rss_mb = 0.0;
    std::vector<double> ping_ms;
    double queue_wait_ms_p50 = 0.0;
    double execute_ms_p50 = 0.0;
    double cache_hit_ratio = 0.0;
    double shed_ratio = 0.0;
};

/**
 * Rewrite decomposition of one circuit: structural validation, the
 * unguarded pipeline, and the pipeline with the validator post-check
 * (their difference is the post-check's cost).
 */
bool
probeRewrite(const NamedCircuit& c, std::uint64_t op, LayerFacts& facts)
{
    {
        Span span("guard.validate", op);
        if (!guard::validateCircuit(c.graph).ok())
            return false;
    }
    PipelineOptions options;
    options.num_tags = c.num_tags;
    auto t0 = Clock::now();
    Result<PipelineResult> plain = [&] {
        Span span("rewrite.pipeline", op);
        Environment env;
        return runOooPipeline(c.graph, env, options);
    }();
    double plain_ms = msSince(t0);
    options.post_check = guard::validatorPostCheck();
    t0 = Clock::now();
    Result<PipelineResult> guarded = [&] {
        Span span("rewrite.pipeline_guarded", op);
        Environment env;
        return runOooPipeline(c.graph, env, options);
    }();
    double guarded_ms = msSince(t0);
    if (!plain.ok() || !guarded.ok())
        return false;
    facts.rewrites_applied += guarded.value().stats.rewrites_applied;
    facts.rollbacks += guarded.value().rollbacks.size();
    facts.postcheck_ms.push_back(guarded_ms - plain_ms);
    return true;
}

/** Median guarded compile time at kFarmCopies over that at half of
 * it, the two sizes alternating kDoublingRuns times each. */
bool
probeDoubling(std::uint64_t op, LayerFacts& facts)
{
    std::vector<double> ms[2];
    const int copies[2] = {kFarmCopies / 2, kFarmCopies};
    const ExprHigh farms[2] = {circuits::buildGcdFarm(copies[0]),
                               circuits::buildGcdFarm(copies[1])};
    for (int run = 0; run < kDoublingRuns; ++run) {
        for (int i = 0; i < 2; ++i) {
            Compiler compiler;
            auto t0 = Clock::now();
            Span span("rewrite.doubling", op);
            if (!compiler.compileGraph(farms[i], {}).ok())
                return false;
            ms[i].push_back(msSince(t0));
        }
    }
    facts.doubling_ratio = median(ms[1]) / median(ms[0]);
    return true;
}

/**
 * Verification decomposition of one circuit's compilation: the
 * governor ladder, the winning rung alone (earlier rungs disabled),
 * and the winning rung's exploration and game called separately, with
 * the resident-memory peak of the split run next to its accounted
 * bytes.
 */
bool
probeRefine(const NamedCircuit& c, const guard::VerificationBudget& base,
            std::uint64_t op, LayerFacts& facts)
{
    Compiler compiler;
    CompileOptions options;
    options.num_tags = c.num_tags;
    Result<CompileReport> compiled = compile(compiler, c.graph, options, op);
    if (!compiled.ok())
        return false;
    const ExprHigh& impl = compiled.value().graph;
    guard::VerificationBudget budget = base;
    budget.threads = lanes();
    std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
    Environment bounded(budget.input_budget + 2,
                        compiler.environment().functionsPtr());

    auto t0 = Clock::now();
    guard::VerificationVerdict ladder = [&] {
        Span span("guard.ladder", op);
        return guard::Governor(budget).verifyGraphs(impl, c.graph, bounded,
                                                    tokens);
    }();
    facts.ladder_ms += msSince(t0);
    if (!ladder.ok)
        return false;
    facts.ladders += 1;
    facts.full += ladder.level == guard::VerificationLevel::Full;

    guard::VerificationBudget alone = budget;
    if (ladder.level != guard::VerificationLevel::Full)
        alone.max_states = 0;
    if (ladder.level == guard::VerificationLevel::TraceInclusion)
        alone.partial_max_states = 0;
    t0 = Clock::now();
    {
        Span span("guard.winning_rung", op);
        guard::Governor(alone).verifyGraphs(impl, c.graph, bounded, tokens);
    }
    facts.winning_rung_ms += msSince(t0);
    if (ladder.level == guard::VerificationLevel::TraceInclusion)
        return true;  // no exhaustive rung to split

    bool full = ladder.level == guard::VerificationLevel::Full;
    Result<ExprLow> impl_low = lowerToExprLow(impl);
    Result<ExprLow> spec_low = lowerToExprLow(c.graph);
    if (!impl_low.ok() || !spec_low.ok())
        return false;
    Result<DenotedModule> impl_mod =
        DenotedModule::denote(impl_low.value(), bounded);
    Result<DenotedModule> spec_mod =
        DenotedModule::denote(spec_low.value(), bounded);
    if (!impl_mod.ok() || !spec_mod.ok())
        return false;
    InputDomain domain = InputDomain::uniform(impl_mod.value(), tokens);
    ExplorationLimits limits;
    limits.max_states = full ? budget.max_states : budget.partial_max_states;
    limits.input_budget = budget.input_budget;
    limits.threads = budget.threads;

    resetPeakRss();
    double rss_base = procStatusMb("VmRSS");
    t0 = Clock::now();
    auto explore = [&](const DenotedModule& mod) {
        Span span("refine.explore", op);
        Result<StateSpace> space =
            full ? StateSpace::explore(mod, domain, limits)
                 : StateSpace::explorePartial(mod, domain, limits);
        if (space.ok())
            span.setWork(static_cast<double>(space.value().numStates()));
        return space;
    };
    Result<StateSpace> impl_space = explore(impl_mod.value());
    Result<StateSpace> spec_space = explore(spec_mod.value());
    double explore_ms = msSince(t0);
    if (!impl_space.ok() || !spec_space.ok())
        return false;
    std::size_t states =
        impl_space.value().numStates() + spec_space.value().numStates();
    t0 = Clock::now();
    Result<RefinementReport> game = [&] {
        Span span("refine.game", op);
        return checkRefinementOnSpaces(impl_space.value(),
                                       spec_space.value(), !full, {},
                                       budget.threads);
    }();
    double game_ms = msSince(t0);
    if (!game.ok() || !game.value().refines)
        return false;
    double rss_peak = procStatusMb("VmHWM") - rss_base;
    double explore_mb = static_cast<double>(impl_space.value().peakBytes() +
                                            spec_space.value().peakBytes()) /
                        (1024.0 * 1024.0);
    double game_mb =
        static_cast<double>(game.value().peak_bytes) / (1024.0 * 1024.0);
    facts.states += states;
    facts.pairs += game.value().reachable_pairs;
    facts.explore_ms += explore_ms;
    facts.game_ms += game_ms;
    // Memory figures come from the probe with the largest footprint.
    if (explore_mb + game_mb >= facts.explore_peak_mb + facts.game_peak_mb) {
        facts.explore_peak_mb = explore_mb;
        facts.game_peak_mb = game_mb;
        facts.accounted_to_rss =
            rss_peak > 0.0 ? (explore_mb + game_mb) / rss_peak : 0.0;
    }
    return true;
}

/** Governed verification of one compile at 1 lane and at all lanes:
 * wall time and resident-memory peak of each. */
bool
probeLanes(const NamedCircuit& c, std::uint64_t op, LayerFacts& facts)
{
    Compiler compiler;
    CompileOptions options;
    options.num_tags = c.num_tags;
    Result<CompileReport> compiled = compile(compiler, c.graph, options, op);
    if (!compiled.ok())
        return false;
    std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
    for (std::size_t n : {std::size_t{1}, lanes()}) {
        guard::VerificationBudget budget = verifyBudget();
        budget.threads = n;
        Environment bounded(budget.input_budget + 2,
                            compiler.environment().functionsPtr());
        resetPeakRss();
        double rss_base = procStatusMb("VmRSS");
        auto t0 = Clock::now();
        Span span(n == 1 ? "guard.lane1" : "guard.lanes", op);
        guard::VerificationVerdict verdict =
            guard::Governor(budget).verifyGraphs(compiled.value().graph,
                                                 c.graph, bounded, tokens);
        double ms = msSince(t0);
        double rss = procStatusMb("VmHWM") - rss_base;
        if (!verdict.ok)
            return false;
        (n == 1 ? facts.lane1_ms : facts.lanes_ms) = ms;
        (n == 1 ? facts.lane1_rss_mb : facts.lanes_rss_mb) = rss;
    }
    return true;
}

// ---------------------------------------------------------------------
// served: the daemon, a closed-loop client mix and its stats.
// ---------------------------------------------------------------------

struct ServedCircuit
{
    std::string dot;
    int num_tags = 8;
};

std::vector<ServedCircuit>
renderServedCircuits(std::uint64_t op)
{
    std::vector<ServedCircuit> out;
    for (const circuits::BenchmarkSpec& spec : buildSuite()) {
        Span span("dot.print", op);
        out.push_back({printDot(spec.df_io), spec.num_tags});
    }
    return out;
}

JobSpec
verifyJob(const ServedCircuit& c, std::uint64_t salt)
{
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = c.dot;
    spec.options.num_tags = c.num_tags;
    spec.options.governed_verify = true;
    spec.options.verify_budget = servedBudget();
    // The budget seed is part of the cache key: a fresh salt is a
    // miss, a repeated one a hit.
    spec.options.verify_budget.seed ^= salt;
    spec.options.threads = 1;
    return spec;
}

/** One client's deterministic request stream: salts are the client's
 * own, so which requests hit the verdict store depends only on the
 * seed, never on how the clients interleave. */
class RequestStream
{
  public:
    RequestStream(std::uint64_t seed, std::size_t client,
                  std::size_t circuits)
        : rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1), client_(client),
          circuits_(circuits)
    {
    }

    /** A ping, or a verify job of one circuit under one salt; a
     * repeat reuses an earlier (circuit, salt) of this client. */
    struct Request
    {
        bool ping = false;
        std::size_t circuit = 0;
        std::uint64_t salt = 0;
        bool repeat = false;
    };

    Request
    next()
    {
        Request r;
        ++count_;
        if (count_ % kServedBlock == 1) {
            r.ping = true;
            return r;
        }
        if (++verifies_ % 2 == 0) {
            std::uniform_int_distribution<std::size_t> pick(0, sent_.size() -
                                                                  1);
            r = sent_[pick(rng_)];
            r.repeat = true;
            return r;
        }
        std::uniform_int_distribution<std::size_t> pick(0, circuits_ - 1);
        r.circuit = pick(rng_);
        r.salt = (static_cast<std::uint64_t>(client_ + 1) << 32) | count_;
        sent_.push_back(r);
        return r;
    }

  private:
    std::mt19937_64 rng_;
    std::size_t client_;
    std::size_t circuits_;
    std::size_t count_ = 0;
    std::size_t verifies_ = 0;
    std::vector<Request> sent_;
};

struct ServedSession
{
    std::unique_ptr<served::Daemon> daemon;
    std::vector<std::unique_ptr<served::Client>> clients;

    ServedSession() = default;
    ServedSession(const ServedSession&) = delete;
    ServedSession& operator=(const ServedSession&) = delete;
    ~ServedSession() { stop(); }

    bool
    start(const std::string& path, std::size_t n_clients)
    {
        served::DaemonConfig config;
        config.socket_path = path;
        config.scheduler.workers = kServedWorkers;
        config.scheduler.queue_capacity = 8;
        config.scheduler.observer =
            std::make_shared<served::ServiceObserver>();
        daemon = std::make_unique<served::Daemon>(config);
        Result<bool> started = daemon->start();
        if (!started.ok()) {
            std::fprintf(stderr, "daemon: %s\n",
                         started.error().message.c_str());
            return false;
        }
        for (std::size_t c = 0; c < n_clients; ++c) {
            served::ClientConfig cc;
            cc.socket_path = path;
            cc.seed = 0x5e4ed5ULL + c;
            clients.push_back(std::make_unique<served::Client>(cc));
            if (!clients.back()->ping().ok())
                return false;
        }
        return true;
    }

    void
    stop()
    {
        for (auto& client : clients)
            client->disconnect();
        clients.clear();
        if (daemon != nullptr)
            daemon->stop();
        daemon.reset();
    }
};

/** served.* figures from the stats verb. */
bool
readServiceStats(served::Client& client, LayerFacts& facts)
{
    Result<obs::json::Value> stats = client.serviceStats();
    if (!stats.ok())
        return false;
    auto number = [](const obs::json::Value* v, const char* key) {
        const obs::json::Value* f = v == nullptr ? nullptr : v->find(key);
        return f != nullptr && f->isNumber() ? f->asNumber() : 0.0;
    };
    const obs::json::Value& root = stats.value();
    const obs::json::Value* verbs = root.find("verbs");
    const obs::json::Value* verify =
        verbs == nullptr ? nullptr : verbs->find("verify");
    if (verify != nullptr) {
        facts.queue_wait_ms_p50 = number(verify->find("queue_wait"), "p50");
        facts.execute_ms_p50 = number(verify->find("execute"), "p50");
    }
    const obs::json::Value* store = root.find("store");
    double hits = number(store, "hits");
    double misses = number(store, "misses");
    facts.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const obs::json::Value* sched = root.find("scheduler");
    double accepted = number(sched, "accepted");
    double shed = number(sched, "shed");
    facts.shed_ratio = accepted + shed > 0 ? shed / (accepted + shed) : 0.0;
    return true;
}

/**
 * Lets the reference work run while no request is in flight: clients
 * enter before each request and leave after it; pause() waits for the
 * requests in flight to end and holds back new ones until resume().
 */
class Gate
{
public:
    void
    enter()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !paused_; });
        ++in_flight_;
    }
    void
    leave()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
        cv_.notify_all();
    }
    void
    pause()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        paused_ = true;
        cv_.wait(lock, [&] { return in_flight_ == 0; });
    }
    void
    resume()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
        cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool paused_ = false;
    std::size_t in_flight_ = 0;
};

/**
 * Drive @p session's clients as a closed loop, each sending its next
 * request only after the previous reply, until @p seconds have passed
 * (or @p max_requests per client, when nonzero).
 */
Window
runServedLoop(ServedSession& session,
              const std::vector<ServedCircuit>& circuits, std::uint64_t seed,
              double seconds, std::size_t max_requests, bool trace_mode,
              LayerFacts& facts)
{
    Window window;
    std::mutex mutex;  // guards window.ops and facts.ping_ms
    std::atomic<std::uint64_t> next_op{1};
    Gate gate;
    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < session.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            served::Client& client = *session.clients[c];
            RequestStream stream(seed, c, circuits.size());
            for (std::size_t r = 0;
                 max_requests == 0 || r < max_requests; ++r) {
                if (max_requests == 0 &&
                    msSince(start) >= seconds * 1000.0)
                    break;
                RequestStream::Request req = stream.next();
                // Alternate blocks of kServedBlock requests, so the
                // traced and untraced halves carry the same mix.
                bool traced = trace_mode && (r / kServedBlock) % 2 == 0;
                e2e::Tracer::threadEnabled() = traced;
                std::uint64_t op = next_op.fetch_add(1);
                gate.enter();
                auto t0 = Clock::now();
                bool ok = false;
                {
                    Span span("op", op);
                    if (req.ping) {
                        Span ping("served.ping", op);
                        ok = client.ping().ok();
                    } else {
                        JobSpec spec =
                            verifyJob(circuits[req.circuit], req.salt);
                        Span call("served.verify", op);
                        Result<served::JobResponse> response =
                            client.request(spec);
                        // A repeated key must hit the verdict store and
                        // a fresh one must miss it.
                        const obs::json::Value* hit =
                            response.ok()
                                ? response.value().result.find(
                                      "verify_cache_hit")
                                : nullptr;
                        ok = response.ok() && response.value().ok() &&
                             hit != nullptr && hit->isBool() &&
                             hit->asBool() == req.repeat;
                    }
                }
                double ms = msSince(t0);
                auto end = Clock::now();
                gate.leave();
                std::lock_guard<std::mutex> lock(mutex);
                window.ops.push_back({ms, ok, traced, end});
                if (req.ping)
                    facts.ping_ms.push_back(ms);
            }
            e2e::Tracer::threadEnabled() = true;
        });
    }
    // The reference work runs on this thread while the clients wait
    // and the daemon is idle, so that it measures the host alone.
    while (max_requests == 0 && msSince(start) < seconds * 1000.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        if (!window.reference.due(start))
            continue;
        gate.pause();
        window.reference.catchUp(start);
        gate.resume();
    }
    for (std::thread& t : threads)
        t.join();
    window.seconds = msSince(start) / 1000.0;
    return window;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir = ".";
};

/** Deterministic figures of one suite op. */
struct SuiteFacts
{
    double speedup = 0.0;  ///< DF-IO exec time / GRAPHITI exec time
    double ff = 0.0;       ///< GRAPHITI flip-flops
    bool operator==(const SuiteFacts&) const = default;
};

/** One suite op: the paper's user flow on one Table-2 benchmark. */
bool
suiteOp(const circuits::BenchmarkSpec& spec, std::uint64_t op,
        SuiteFacts& facts)
{
    Result<ExprHigh> input = dotRoundTrip(spec.df_io, op);
    if (!input.ok())
        return false;
    Compiler compiler;
    CompileOptions options;
    options.num_tags = spec.num_tags;
    Result<CompileReport> compiled =
        compile(compiler, input.value(), options, op);
    if (!compiled.ok())
        return false;
    const ExprHigh& out = compiled.value().graph;
    SimRun io = simulate(input.value(), std::make_shared<FnRegistry>(),
                         spec.memories, spec.inputs, spec.expected_outputs,
                         spec.serial_io, op);
    SimRun gra = simulate(out, compiler.environment().functionsPtr(),
                          spec.memories, spec.inputs, spec.expected_outputs,
                          spec.serial_io, op);
    if (!matchesGolden(io, spec) || !matchesGolden(gra, spec))
        return false;
    double io_ns = 0.0, gra_ns = 0.0;
    arch::AreaReport area;
    {
        Span span("arch", op);
        io_ns = arch::executionTimeNs(io.cycles,
                                      arch::clockPeriodOf(input.value()));
    }
    {
        Span span("arch", op);
        gra_ns = arch::executionTimeNs(gra.cycles, arch::clockPeriodOf(out));
        area = arch::areaOf(out);
    }
    {
        Span span("static_hls", op);
        if (static_hls::scheduleAndEvaluate(spec.static_kernel).cycles == 0)
            return false;
    }
    {
        Span span("emit", op);
        Result<std::string> verilog = emit::emitVerilog(out);
        if (!verilog.ok() || verilog.value().empty())
            return false;
    }
    facts = {io_ns / gra_ns, static_cast<double>(area.ff)};
    return true;
}

/** One farm op: guarded compile of the farm, then simulation of the
 * result on seeded (a, b) pairs checked against std::gcd. */
bool
farmOp(const ExprHigh& farm, std::mt19937_64& rng, std::uint64_t op)
{
    Compiler compiler;
    Result<CompileReport> compiled = compile(compiler, farm, {}, op);
    if (!compiled.ok())
        return false;
    std::uniform_int_distribution<int> draw(1, 100000);
    std::vector<std::vector<Token>> inputs(2 * kFarmCopies);
    std::vector<std::int64_t> expected;
    for (int k = 0; k < kFarmCopies; ++k)
        for (int p = 0; p < kFarmPairs; ++p) {
            int a = draw(rng), b = draw(rng);
            inputs[2 * k].emplace_back(Value(a));
            inputs[2 * k + 1].emplace_back(Value(b));
            expected.push_back(std::gcd(a, b));
        }
    SimRun run = simulate(compiled.value().graph,
                          compiler.environment().functionsPtr(), {}, inputs,
                          kFarmPairs, false, op);
    if (!run.ok || run.result.outputs.size() != kFarmCopies)
        return false;
    for (int k = 0; k < kFarmCopies; ++k) {
        const std::vector<Token>& stream = run.result.outputs[k];
        if (stream.size() != kFarmPairs)
            return false;
        for (int p = 0; p < kFarmPairs; ++p)
            if (stream[p].value.asInt() != expected[k * kFarmPairs + p])
                return false;
    }
    return true;
}

/** One verify op: governed compile at the fixed budget. */
bool
verifyOp(const NamedCircuit& c, std::uint64_t op, std::string& level)
{
    Compiler compiler;
    CompileOptions options;
    options.num_tags = c.num_tags;
    options.governed_verify = true;
    options.verify_budget = verifyBudget();
    options.threads = kVerifyLanes;
    options.verify_cache = false;
    Result<CompileReport> compiled = compile(compiler, c.graph, options, op);
    if (!compiled.ok()) {
        std::fprintf(stderr, "verify %s: %s\n", c.name.c_str(),
                     compiled.error().message.c_str());
        return false;
    }
    level = compiled.value().verification_level;
    return compiled.value().verdict.ok;
}

/** Negative control: the gcd out-of-order loop without its
 * Tagger/Untagger reorders results and must yield a counterexample. */
bool
negativeControl()
{
    Environment env(4);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    circuits::registerGcdBody(env.functions());
    ExprHigh ooo;
    ooo.addNode("merge", "merge");
    ooo.addNode("body", "pure", {{"fn", "gcd_body"}});
    ooo.addNode("split", "split");
    ooo.addNode("branch", "branch");
    ooo.bindInput(0, PortRef{"merge", "in1"});
    ooo.bindOutput(0, PortRef{"branch", "out1"});
    ooo.connect("branch", "out0", "merge", "in0");
    ooo.connect("merge", "out0", "body", "in0");
    ooo.connect("body", "out0", "split", "in0");
    ooo.connect("split", "out0", "branch", "in0");
    ooo.connect("split", "out1", "branch", "in1");
    guard::VerificationBudget budget = verifyBudget();
    budget.threads = lanes();
    Environment bounded(budget.input_budget + 2, env.functionsPtr());
    std::vector<Token> pairs = {Token(Value::tuple(Value(3), Value(2))),
                                Token(Value::tuple(Value(4), Value(2)))};
    guard::VerificationVerdict verdict =
        guard::Governor(budget).verifyGraphs(ooo, seq, bounded, pairs);
    return !verdict.ok && !verdict.counterexample.empty();
}

/** Figures every traced run reports, whatever the workload. */
void
addLayerMetrics(Outcome& out, const Window& window, const LayerFacts& f)
{
    std::map<std::string, std::vector<double>> by_name;
    std::map<std::string, double> work, busy;
    for (const e2e::SpanRecord& s : e2e::tracer().spans()) {
        by_name[s.name].push_back(s.ms());
        work[s.name] += s.work;
        busy[s.name] += s.ms();
    }
    auto p50 = [&](const char* name) { return median(by_name[name]); };
    auto per_s = [&](const char* name) {
        return busy[name] > 0.0 ? work[name] / (busy[name] / 1000.0) : 0.0;
    };
    out.add("dot.parse_ms", p50("dot.parse"), "ms");
    out.add("dot.print_ms", p50("dot.print"), "ms");
    out.add("guard.validate_ms", p50("guard.validate"), "ms");
    out.add("rewrite.pipeline_ms", p50("rewrite.pipeline"), "ms");
    out.add("rewrite.postcheck_ms", median(f.postcheck_ms), "ms");
    out.add("rewrite.applied", static_cast<double>(f.rewrites_applied),
            "count");
    out.add("rewrite.rollbacks", static_cast<double>(f.rollbacks), "count");
    out.add("rewrite.doubling_ratio", f.doubling_ratio, "x");
    out.add("refine.explore_ms", f.explore_ms, "ms");
    out.add("refine.game_ms", f.game_ms, "ms");
    out.add("refine.states", static_cast<double>(f.states), "count");
    out.add("refine.pairs", static_cast<double>(f.pairs), "count");
    out.add("refine.states_per_s",
            f.explore_ms > 0 ? f.states / (f.explore_ms / 1000.0) : 0.0,
            "1/s");
    out.add("refine.pairs_per_s",
            f.game_ms > 0 ? f.pairs / (f.game_ms / 1000.0) : 0.0, "1/s");
    out.add("refine.explore_peak_mb", f.explore_peak_mb, "MB");
    out.add("refine.game_peak_mb", f.game_peak_mb, "MB");
    out.add("refine.accounted_to_rss", f.accounted_to_rss, "ratio");
    out.add("guard.rung_waste_ratio",
            f.ladder_ms > 0 ? 1.0 - f.winning_rung_ms / f.ladder_ms : 0.0,
            "ratio");
    out.add("guard.full_ratio",
            f.ladders > 0 ? static_cast<double>(f.full) / f.ladders : 0.0,
            "ratio");
    out.add("guard.lane1_ms", f.lane1_ms, "ms");
    out.add("guard.lanes_ms", f.lanes_ms, "ms");
    out.add("guard.lane1_rss_mb", f.lane1_rss_mb, "MB");
    out.add("guard.lanes_rss_mb", f.lanes_rss_mb, "MB");
    out.add("sim.build_ms", p50("sim.build"), "ms");
    out.add("sim.cycles_per_s_tagged", per_s("sim.run.tagged"), "1/s");
    out.add("sim.cycles_per_s_untagged", per_s("sim.run.untagged"), "1/s");
    out.add("arch.ms", p50("arch"), "ms");
    out.add("static_hls.ms", p50("static_hls"), "ms");
    out.add("emit.ms", p50("emit"), "ms");
    out.add("served.ping_ms_p50", median(f.ping_ms), "ms");
    out.add("served.queue_wait_ms_p50", f.queue_wait_ms_p50, "ms");
    out.add("served.execute_ms_p50", f.execute_ms_p50, "ms");
    out.add("served.cache_hit_ratio", f.cache_hit_ratio, "ratio");
    out.add("served.shed_ratio", f.shed_ratio, "ratio");
    out.add("core.compile_ms", p50("core.compile"), "ms");
    double traced = median(window.latencies(1));
    double plain = median(window.latencies(0));
    out.add("trace.overhead_ratio", plain > 0 ? traced / plain - 1.0 : 0.0,
            "ratio");
    std::map<std::string, double> self_by_layer;
    for (const auto& [name, ms] : e2e::tracer().selfTimeByName())
        self_by_layer[name.substr(0, name.find('.'))] += ms;
    for (const auto& [layer, ms] : self_by_layer)
        out.detail("self_ms." + layer, ms, "ms");
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 0);
            have[1] = true;
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value);
            have[2] = true;
        } else if (flag == "--trace") {
            args.trace = std::atoi(value) != 0;
            have[3] = true;
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3]) ||
        args.seconds <= 0.0) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload suite|farm|verify|served "
                     "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
        return 2;
    }
    std::mt19937_64 rng(args.seed);
    e2e::tracer().enable(args.trace);
    Outcome out;
    LayerFacts facts;
    Window window;
    std::uint64_t probe_op = 1u << 30;  // op ids of the layer probes
    // The circuits the workload compiles; the traced run decomposes
    // each one's rewriting once.
    std::vector<NamedCircuit> rewrite_set;
    // The circuits whose verification the traced run decomposes.
    std::vector<NamedCircuit> refine_set = {
        {"gcd", circuits::buildGcdInOrder(), 8}};
    std::string lane_circuit = "gcd";
    bool served_probe = true;
    out.detail("lanes", static_cast<double>(lanes()), "count");
    if (args.workload == "verify")
        out.detail("verify_lanes", kVerifyLanes, "count");

    // The deterministic output-quality figures of the suite: from the
    // window's own ops on suite, from one extra round elsewhere.
    std::vector<circuits::BenchmarkSpec> suite;
    std::vector<SuiteFacts> suite_facts;
    bool repeatable = true;
    auto suite_op = [&](std::size_t i, std::uint64_t op) {
        SuiteFacts f;
        if (!suiteOp(suite[i], op, f))
            return false;
        if (suite_facts[i] != SuiteFacts{} && f != suite_facts[i])
            repeatable = false;
        suite_facts[i] = f;
        return true;
    };

    if (args.workload == "suite") {
        double setup_s = timedSetup([&] { suite = buildSuite(); });
        suite_facts.resize(suite.size());
        window = runRounds(args.seconds, suite.size(), rng, args.trace,
                           suite_op);
        addEndToEnd(out, setup_s, window);
    } else if (args.workload == "farm") {
        ExprHigh farm;
        double setup_s =
            timedSetup([&] { farm = circuits::buildGcdFarm(kFarmCopies); });
        window = runRounds(args.seconds, 1, rng, args.trace,
                           [&](std::size_t, std::uint64_t op) {
                               return farmOp(farm, rng, op);
                           });
        addEndToEnd(out, setup_s, window);
        rewrite_set.push_back({"farm", farm, 8});
    } else if (args.workload == "verify") {
        std::vector<NamedCircuit> set;
        double setup_s = timedSetup([&] { set = buildVerifySet(); });
        std::vector<std::string> levels(set.size());
        window = runRounds(args.seconds, set.size(), rng, args.trace,
                           [&](std::size_t i, std::uint64_t op) {
                               std::string level;
                               bool ok = verifyOp(set[i], op, level);
                               if (!levels[i].empty() && levels[i] != level)
                                   repeatable = false;
                               levels[i] = level;
                               return ok;
                           });
        addEndToEnd(out, setup_s, window);
        double full = 0;
        for (std::size_t i = 0; i < set.size(); ++i) {
            full += levels[i] == "full";
            out.detail("level." + set[i].name,
                       static_cast<double>(
                           levels[i] == "full"              ? 3
                           : levels[i] == "bounded-partial" ? 2
                           : levels[i] == "trace-inclusion" ? 1
                                                            : 0),
                       "rung");
        }
        out.detail("verify_full_ratio",
                   full / static_cast<double>(set.size()), "ratio");
        bool control = negativeControl();
        out.attempted += 1;
        out.failed += control ? 0 : 1;
        rewrite_set = set;
        refine_set = set;
        lane_circuit = "bicg";
    } else if (args.workload == "served") {
        std::vector<ServedCircuit> circuits;
        ServedSession session;
        std::string path =
            args.out_dir + "/served-" + std::to_string(::getpid()) + ".sock";
        bool started = true;
        double setup_s = timedSetup(
            [&] {
                circuits = renderServedCircuits(0);
                started &= session.start(path, kServedClients);
            },
            [&] { session.stop(); });
        if (!started) {
            std::fprintf(stderr, "served: daemon set-up failed\n");
            return 1;
        }
        window = runServedLoop(session, circuits, args.seed, args.seconds, 0,
                               args.trace, facts);
        addEndToEnd(out, setup_s, window);
        if (!readServiceStats(*session.clients[0], facts))
            out.extra_failure = true;
        out.detail("served.cache_hit_ratio", facts.cache_hit_ratio, "ratio");
        out.detail("served.clients", kServedClients, "count");
        out.detail("served.workers", kServedWorkers, "count");
        session.stop();
        served_probe = false;
    } else {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    if (args.workload != "suite") {
        // One suite round, outside the window: the quality figures, and
        // in a traced run sim, arch, static_hls and emit spans.
        suite = buildSuite();
        suite_facts.assign(suite.size(), SuiteFacts{});
        for (std::size_t i = 0; i < suite.size(); ++i) {
            out.attempted += 1;
            out.failed += suite_op(i, probe_op++) ? 0 : 1;
        }
    }
    std::vector<double> speedups, ffs;
    for (const SuiteFacts& f : suite_facts) {
        speedups.push_back(f.speedup);
        ffs.push_back(f.ff);
    }
    out.add("ooo_speedup_geomean", geomean(speedups), "x");
    out.add("area_ff_geomean", geomean(ffs), "FF");
    out.extra_failure |= !repeatable;
    if (rewrite_set.empty())
        for (const circuits::BenchmarkSpec& spec : suite)
            rewrite_set.push_back({spec.name, spec.df_io, spec.num_tags});

    if (!args.trace) {
        printOutcome(out);
        return 0;
    }

    // Traced run: the end-to-end figures above came from half-traced
    // rounds, so only the per-layer metrics are reported. The probes
    // below give every layer a figure on every workload.
    Outcome traced;
    traced.attempted = out.attempted;
    traced.failed = out.failed;
    traced.extra_failure = out.extra_failure;
    traced.details = out.details;
    auto probe = [&](bool ok, const char* what) {
        traced.attempted += 1;
        if (!ok) {
            traced.failed += 1;
            std::fprintf(stderr, "probe failed: %s\n", what);
        }
    };
    for (const NamedCircuit& c : rewrite_set)
        probe(probeRewrite(c, probe_op++, facts), "rewrite");
    probe(probeDoubling(probe_op++, facts), "doubling");
    for (const NamedCircuit& c : refine_set)
        probe(probeRefine(c, verifyBudget(), probe_op++, facts), "refine");
    for (const NamedCircuit& c : buildVerifySet())
        if (c.name == lane_circuit)
            probe(probeLanes(c, probe_op++, facts), "lanes");
    if (served_probe) {
        ServedSession session;
        std::string path =
            args.out_dir + "/served-" + std::to_string(::getpid()) + ".sock";
        std::vector<ServedCircuit> circuits = renderServedCircuits(probe_op++);
        bool ok = session.start(path, 1);
        if (ok) {
            Window w = runServedLoop(session, circuits, args.seed, 0,
                                     2 * kServedBlock, false, facts);
            ok = w.failures() == 0 && readServiceStats(*session.clients[0],
                                                       facts);
        }
        session.stop();
        probe(ok, "served session");
    }
    addLayerMetrics(traced, window, facts);
    std::string spans_path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!e2e::tracer().write(spans_path))
        std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
    printOutcome(traced);
    return 0;
}
