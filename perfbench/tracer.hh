/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are opened and closed around every call the benchmark makes
 * into a library layer. A span's name is "<layer>.<call>[.<detail>]";
 * its self time is its duration minus the time its child spans
 * cover. When tracing is off, Scope does nothing, so the untraced run
 * pays only a branch per call.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p since. */
double secondsSince(Clock::time_point since);

struct Span
{
    std::string name;
    double start = 0.0; ///< Seconds since the tracer's origin.
    double end = 0.0;
    int parent = -1;    ///< Index of the enclosing span, -1 = root.
    int op = -1;        ///< Operation id the span belongs to (-1 = none).
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return _enabled; }
    void setEnabled(bool enabled) { _enabled = enabled; }

    /** Open a span; returns its index, or -1 when tracing is off. */
    int open(std::string name, int op);

    /** Close the span @p id opened last (no-op for -1). */
    void close(int id);

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time in seconds per span name, over spans at or after @p first. */
    std::map<std::string, double> selfTimes(std::size_t first = 0) const;

    /** Durations in seconds of spans named with @p prefix, from @p first. */
    std::vector<double> durations(const std::string &prefix,
                                  std::size_t first = 0) const;

    /** Chrome trace-event JSON ("X" events, one thread). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    bool _enabled;
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name, int op = -1)
        : _tracer(tracer),
          _id(tracer.enabled() ? tracer.open(std::move(name), op) : -1)
    {}
    ~Scope() { _tracer.close(_id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &_tracer;
    int _id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
