#include "tracer.hh"

#include <iomanip>

namespace perfbench {

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

Tracer::Tracer(bool enabled) : _enabled(enabled), _origin(Clock::now()) {}

int
Tracer::open(std::string name, int op)
{
    Span span;
    span.name = std::move(name);
    span.start = secondsSince(_origin);
    span.parent = _open.empty() ? -1 : _open.back();
    span.op = op;
    _spans.push_back(std::move(span));
    const int id = static_cast<int>(_spans.size()) - 1;
    _open.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    _spans[static_cast<std::size_t>(id)].end = secondsSince(_origin);
    // Scopes nest, so the span being closed is the innermost open one.
    _open.pop_back();
}

std::map<std::string, double>
Tracer::selfTimes(std::size_t first) const
{
    std::vector<double> self(_spans.size(), 0.0);
    for (std::size_t i = first; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        self[i] += s.end - s.start;
        if (s.parent >= static_cast<int>(first))
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = first; i < _spans.size(); ++i)
        by_name[_spans[i].name] += self[i];
    return by_name;
}

std::vector<double>
Tracer::durations(const std::string &prefix, std::size_t first) const
{
    std::vector<double> out;
    for (std::size_t i = first; i < _spans.size(); ++i) {
        if (_spans[i].name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(_spans[i].end - _spans[i].start);
    }
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        const auto layer = s.name.substr(0, s.name.find('.'));
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"" << layer
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"op\": " << s.op << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
