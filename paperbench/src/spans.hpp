/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a simulator layer: a name, a start and
 * end on the steady clock, and the span that was open when it began
 * (its parent). All spans of one recorder share a run id. Spans stay in
 * memory until the run ends, then go out as Chrome-trace JSON and as a
 * per-name table of total and self time (self = duration minus the
 * time covered by direct children).
 *
 * A disabled recorder (or a null one) records nothing; Scope is then a
 * no-op, so the untimed paths of the benchmark pay only a branch.
 */

#ifndef PAPERBENCH_SPANS_HPP
#define PAPERBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace paperbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Total and self time of every span that shares one name. */
struct SpanTotals {
    uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

class SpanLog
{
  public:
    explicit SpanLog(uint64_t runId) : runId_(runId) {}

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name);
    /** Close span @p index, the innermost open one (Scope nests them). */
    void close(int index);

    uint64_t runId() const { return runId_; }
    size_t size() const { return spans_.size(); }

    /** Per-name totals over spans with index >= @p from. */
    std::map<std::string, SpanTotals> totals(size_t from = 0) const;

    /** Chrome-trace JSON ("X" events, args carry run/span/parent ids). */
    std::string chromeJson() const;

  private:
    struct Span {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
    };

    uint64_t runId_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span; records nothing when @p log is null. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log_(log), index_(log ? log->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    int index_;
};

} // namespace paperbench

#endif // PAPERBENCH_SPANS_HPP
