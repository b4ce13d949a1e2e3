#include "spans.hpp"

#include <sstream>

namespace paperbench {

int
SpanLog::open(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = current_;
    s.start = Clock::now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
SpanLog::close(int index)
{
    spans_[index].end = Clock::now();
    current_ = spans_[index].parent;
}

std::map<std::string, SpanTotals>
SpanLog::totals(size_t from) const
{
    std::vector<double> childS(spans_.size(), 0.0);
    for (size_t i = from; i < spans_.size(); i++) {
        const int p = spans_[i].parent;
        if (p >= 0)
            childS[p] += std::chrono::duration<double>(spans_[i].end -
                                                       spans_[i].start)
                             .count();
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = from; i < spans_.size(); i++) {
        const double d =
            std::chrono::duration<double>(spans_[i].end - spans_[i].start)
                .count();
        SpanTotals &t = out[spans_[i].name];
        t.count++;
        t.totalS += d;
        t.selfS += d - childS[i];
    }
    return out;
}

std::string
SpanLog::chromeJson() const
{
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    std::ostringstream os;
    os.precision(17);
    os << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
           << ", \"args\": {\"run\": " << runId_ << ", \"span\": " << i
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n], \"otherData\": {\"run_id\": " << runId_ << "}}\n";
    return os.str();
}

} // namespace paperbench
