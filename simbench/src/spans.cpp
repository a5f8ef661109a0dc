#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace simbench {

namespace {

struct Registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers;
    int lanes = 0;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

std::atomic<std::uint64_t> gNextId{1};

thread_local std::vector<SpanRec>* tlsBuffer = nullptr;
thread_local int tlsLane = -1;
thread_local std::uint64_t tlsCurrent = 0;

/** Measure of the union of `iv`, clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double curLo = 0.0, curHi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= curHi) {
            curHi = std::max(curHi, b);
            continue;
        }
        if (open)
            covered += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
    }
    if (open)
        covered += curHi - curLo;
    return covered;
}

}  // namespace

Tracer&
Tracer::instance()
{
    static Tracer t;
    return t;
}

std::uint64_t
Tracer::newId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

int
Tracer::threadLane()
{
    if (!tlsBuffer) {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<std::vector<SpanRec>>());
        tlsBuffer = r.buffers.back().get();
        tlsBuffer->reserve(4096);
        tlsLane = r.lanes++;
    }
    return tlsLane;
}

void
Tracer::record(const SpanRec& span)
{
    SpanRec rec = span;
    const int mine = threadLane();
    if (rec.lane < 0)
        rec.lane = mine;
    tlsBuffer->push_back(rec);
}

std::vector<SpanRec>
Tracer::take()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<SpanRec> all;
    for (auto& buf : r.buffers) {
        all.insert(all.end(), buf->begin(), buf->end());
        buf->clear();
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRec& a, const SpanRec& b) { return a.t0 < b.t0; });
    return all;
}

std::uint64_t
currentSpan()
{
    return tlsCurrent;
}

Span::Span(const char* name, std::uint64_t parent)
{
    Tracer& t = Tracer::instance();
    if (!t.enabled())
        return;
    live_ = true;
    rec_.name = name;
    rec_.id = t.newId();
    rec_.parent = parent;
    saved_ = tlsCurrent;
    tlsCurrent = rec_.id;
    rec_.t0 = t.now();
}

Span::~Span()
{
    if (!live_)
        return;
    Tracer& t = Tracer::instance();
    rec_.t1 = t.now();
    tlsCurrent = saved_;
    t.record(rec_);
}

SpanAnalysis
analyse(const std::vector<SpanRec>& spans, std::uint64_t root)
{
    constexpr double kEps = 1e-6;
    std::unordered_map<std::uint64_t, const SpanRec*> byId;
    std::unordered_map<std::uint64_t, std::vector<const SpanRec*>> children;
    for (const SpanRec& s : spans) {
        byId[s.id] = &s;
        children[s.parent].push_back(&s);
    }
    SpanAnalysis out;
    auto rootIt = byId.find(root);
    if (rootIt == byId.end()) {
        out.nests = false;
        return out;
    }
    const SpanRec& r = *rootIt->second;
    out.wallS = r.t1 - r.t0;

    // Walk the subtree below the root.
    std::vector<const SpanRec*> stack = {&r};
    std::vector<std::pair<double, double>> descendants;
    std::map<int, double> laneSelf;
    while (!stack.empty()) {
        const SpanRec* s = stack.back();
        stack.pop_back();
        std::vector<std::pair<double, double>> kids;
        for (const SpanRec* c : children[s->id]) {
            if (c->t0 < s->t0 - kEps || c->t1 > s->t1 + kEps)
                out.nests = false;
            kids.emplace_back(c->t0, c->t1);
            descendants.emplace_back(c->t0, c->t1);
            stack.push_back(c);
        }
        double self = (s->t1 - s->t0) - unionLength(kids, s->t0, s->t1);
        if (self < -kEps)
            out.nests = false;
        out.selfS[s->name] += self;
        laneSelf[s->lane] += self;
    }
    out.unattributedS =
        out.wallS - unionLength(std::move(descendants), r.t0, r.t1);
    for (const auto& [lane, total] : laneSelf)
        out.maxLaneSelfS = std::max(out.maxLaneSelfS, total);
    return out;
}

}  // namespace simbench
