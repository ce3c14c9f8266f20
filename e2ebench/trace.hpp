#ifndef GRAPHITI_E2EBENCH_TRACE_HPP
#define GRAPHITI_E2EBENCH_TRACE_HPP

/**
 * @file
 * In-memory span recorder of the end-to-end benchmark. Spans are
 * opened and closed by the benchmark's own code around each call into
 * a library layer; nothing inside the library is instrumented. A span
 * carries its name ("layer.step"), start and end, the span that was
 * open on the same thread when it started (its parent), the id of
 * the operation it belongs to, and an optional work count (simulated
 * cycles, explored states, ...). Spans are kept in memory and written
 * out when the run ends.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct SpanRecord
{
    std::string name;
    double start_ms = 0.0;  ///< since the tracer's epoch
    double end_ms = 0.0;
    std::int64_t parent = -1;  ///< index into the span list, -1 = root
    std::uint64_t op = 0;
    double work = 0.0;

    double ms() const { return end_ms - start_ms; }
};

/** Process-wide span store; a disabled tracer records nothing. */
class Tracer
{
  public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its index, or -1 when not recording. */
    std::int64_t
    open(const char* name, std::uint64_t op)
    {
        if (!enabled_ || !threadEnabled())
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord rec;
        rec.name = name;
        rec.start_ms = sinceEpoch();
        rec.parent = current();
        rec.op = op;
        spans_.push_back(std::move(rec));
        current() = static_cast<std::int64_t>(spans_.size()) - 1;
        return current();
    }

    void
    close(std::int64_t index, double work)
    {
        if (index < 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
        rec.end_ms = sinceEpoch();
        rec.work = work;
        current() = rec.parent;
    }

    /** Per-thread switch, so a traced run can interleave traced and
     * untraced operations and measure the tracing overhead. */
    static bool&
    threadEnabled()
    {
        thread_local bool on = true;
        return on;
    }

    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** Self time summed per span name: each span's duration minus
     * the time its children (same thread, hence disjoint) cover. */
    std::map<std::string, double>
    selfTimeByName() const
    {
        std::vector<SpanRecord> all = spans();
        std::vector<double> child_ms(all.size(), 0.0);
        for (const SpanRecord& s : all)
            if (s.parent >= 0)
                child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < all.size(); ++i)
            out[all[i].name] += all[i].ms() - child_ms[i];
        return out;
    }

    /** Write every span as one JSON object per line; false on error. */
    bool
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        for (const SpanRecord& s : spans())
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ms\":%.6f,"
                         "\"end_ms\":%.6f,\"parent\":%lld,\"op\":%llu,"
                         "\"work\":%.17g}\n",
                         s.name.c_str(), s.start_ms, s.end_ms,
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.op), s.work);
        return std::fclose(f) == 0;
    }

  private:
    static std::int64_t&
    current()
    {
        thread_local std::int64_t index = -1;
        return index;
    }

    double
    sinceEpoch() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         epoch_)
            .count();
    }

    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

inline Tracer&
tracer()
{
    static Tracer instance;
    return instance;
}

/** RAII span around one layer call. */
class Span
{
  public:
    Span(const char* name, std::uint64_t op)
        : index_(tracer().open(name, op))
    {
    }
    ~Span() { tracer().close(index_, work_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Attach a work count (cycles, states, ...) to the span. */
    void setWork(double work) { work_ = work; }

  private:
    std::int64_t index_;
    double work_ = 0.0;
};

}  // namespace e2e

#endif  // GRAPHITI_E2EBENCH_TRACE_HPP
