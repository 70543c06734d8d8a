#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace proact {

void
Workload::setFootprintScale(std::uint64_t factor)
{
    if (factor == 0)
        fatalError("Workload: footprint scale must be non-zero");
    _footprintScale = factor;
}

Phase
Workload::phase(int iter)
{
    Phase p = buildPhase(iter);
    const std::uint64_t f = _footprintScale;
    if (f == 1)
        return p;

    for (GpuPhaseWork &work : p.perGpu) {
        work.bytesProduced *= f;

        CtaFn inner_body = std::move(work.kernel.body);
        work.kernel.body = [inner_body, f](const CtaContext &ctx) {
            CtaWork w = inner_body(ctx);
            w.flops *= static_cast<double>(f);
            w.localBytes *= f;
            return w;
        };

        auto scale_range =
            [f](std::function<ByteRange(int)> &range) {
                if (!range)
                    return;
                auto inner = std::move(range);
                range = [inner, f](int cta) {
                    ByteRange r = inner(cta);
                    return ByteRange{r.lo * f, r.hi * f};
                };
            };
        scale_range(work.ctaRange);
        for (RegionOutput &extra : work.extraOutputs) {
            extra.bytesProduced *= f;
            scale_range(extra.ctaRange);
        }
    }
    return p;
}

std::vector<std::uint64_t>
Workload::peakBytesProduced()
{
    const Phase first = phase(0);
    std::vector<std::uint64_t> peak;
    peak.reserve(first.perGpu.size());
    for (const GpuPhaseWork &work : first.perGpu)
        peak.push_back(work.totalBytesProduced());
    return peak;
}

} // namespace proact
