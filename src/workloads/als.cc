#include "workloads/als.hh"

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>

namespace proact {

void
AlsWorkload::setup(int num_gpus)
{
    if (num_gpus < 1)
        fatalError("AlsWorkload: need at least one GPU");
    _numGpus = num_gpus;

    const std::int64_t users = _params.numUsers;
    const std::int64_t items = _params.numItems;
    const std::int64_t nnz = _params.numRatings;
    const int k = _params.rank;

    Rng rng(_params.seed);

    // Synthetic low-rank ground truth + noise.
    std::vector<float> true_u(users * k), true_i(items * k);
    for (auto &v : true_u)
        v = static_cast<float>(rng.uniform());
    for (auto &v : true_i)
        v = static_cast<float>(rng.uniform());

    std::vector<std::int64_t> rating_users(nnz), rating_items(nnz);
    std::vector<float> rating_values(nnz);
    for (std::int64_t r = 0; r < nnz; ++r) {
        const auto u = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(users)));
        const auto i = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(items)));
        double dot = 0.0;
        for (int d = 0; d < k; ++d)
            dot += true_u[u * k + d] * true_i[i * k + d];
        rating_users[r] = u;
        rating_items[r] = i;
        rating_values[r] = static_cast<float>(
            dot / k + 0.05 * (rng.uniform() - 0.5));
    }

    // Build user-major CSR.
    _userOffsets.assign(users + 1, 0);
    for (std::int64_t r = 0; r < nnz; ++r)
        ++_userOffsets[rating_users[r] + 1];
    for (std::int64_t u = 0; u < users; ++u)
        _userOffsets[u + 1] += _userOffsets[u];
    _userItems.resize(nnz);
    _userRatings.resize(nnz);
    {
        std::vector<std::int64_t> cursor(_userOffsets.begin(),
                                         _userOffsets.end() - 1);
        for (std::int64_t r = 0; r < nnz; ++r) {
            const std::int64_t slot = cursor[rating_users[r]]++;
            _userItems[slot] =
                static_cast<std::int32_t>(rating_items[r]);
            _userRatings[slot] = rating_values[r];
        }
    }

    // Build item-major CSC.
    _itemOffsets.assign(items + 1, 0);
    for (std::int64_t r = 0; r < nnz; ++r)
        ++_itemOffsets[rating_items[r] + 1];
    for (std::int64_t i = 0; i < items; ++i)
        _itemOffsets[i + 1] += _itemOffsets[i];
    _itemUsers.resize(nnz);
    _itemRatings.resize(nnz);
    {
        std::vector<std::int64_t> cursor(_itemOffsets.begin(),
                                         _itemOffsets.end() - 1);
        for (std::int64_t r = 0; r < nnz; ++r) {
            const std::int64_t slot = cursor[rating_items[r]]++;
            _itemUsers[slot] =
                static_cast<std::int32_t>(rating_users[r]);
            _itemRatings[slot] = rating_values[r];
        }
    }

    // Small deterministic initial factors.
    _userFactors.resize(users * k);
    _itemFactors.resize(items * k);
    Rng init_rng(_params.seed + 1);
    for (auto &v : _userFactors)
        v = static_cast<float>(0.1 * init_rng.uniform());
    for (auto &v : _itemFactors)
        v = static_cast<float>(0.1 * init_rng.uniform());

    // Balance partitions by rating counts per side.
    auto balance = [num_gpus](const std::vector<std::int64_t> &off,
                              std::int64_t rows) {
        std::vector<std::int64_t> bounds(num_gpus + 1, 0);
        const std::int64_t total = off[rows];
        std::int64_t v = 0;
        for (int p = 1; p < num_gpus; ++p) {
            const std::int64_t target = total * p / num_gpus;
            while (v < rows && off[v] < target)
                ++v;
            bounds[p] = std::max(bounds[p - 1], v);
        }
        bounds[num_gpus] = rows;
        return bounds;
    };
    _userBounds = balance(_userOffsets, users);
    _itemBounds = balance(_itemOffsets, items);

    auto cta_split = [this, num_gpus](
                         const std::vector<std::int64_t> &off,
                         const std::vector<std::int64_t> &bounds) {
        std::vector<std::vector<std::int64_t>> out(num_gpus);
        for (int g = 0; g < num_gpus; ++g) {
            const std::int64_t rows = bounds[g + 1] - bounds[g];
            const std::int64_t target_ctas = std::max<std::int64_t>(
                1, rows / _params.rowsPerCta);
            const std::int64_t weight =
                off[bounds[g + 1]] - off[bounds[g]];
            out[g] = balanceByWeight(
                off, bounds[g], bounds[g + 1],
                std::max<std::int64_t>(1, weight / target_ctas),
                4 * _params.rowsPerCta);
        }
        return out;
    };
    _userCtaBounds = cta_split(_userOffsets, _userBounds);
    _itemCtaBounds = cta_split(_itemOffsets, _itemBounds);

    _initialRmse = rmse();
}

std::pair<std::int64_t, std::int64_t>
AlsWorkload::ctaRows(bool user_side, int gpu, int cta) const
{
    const auto &bounds =
        user_side ? _userCtaBounds[gpu] : _itemCtaBounds[gpu];
    return {bounds[cta], bounds[cta + 1]};
}

std::int64_t
AlsWorkload::ratingsInRows(bool user_side, std::int64_t lo,
                           std::int64_t hi) const
{
    const auto &off = user_side ? _userOffsets : _itemOffsets;
    return off[hi] - off[lo];
}

void
AlsWorkload::updateUserCta(int gpu, int cta)
{
    const auto [lo, hi] = ctaRows(true, gpu, cta);
    const int k = _params.rank;
    const auto lr = static_cast<float>(_params.learningRate);
    const auto reg = static_cast<float>(_params.regularization);

    for (std::int64_t u = lo; u < hi; ++u) {
        float *xu = &_userFactors[u * k];
        for (std::int64_t r = _userOffsets[u]; r < _userOffsets[u + 1];
             ++r) {
            const float *yi = &_itemFactors[_userItems[r] * k];
            float err = _userRatings[r];
            for (int d = 0; d < k; ++d)
                err -= xu[d] * yi[d];
            for (int d = 0; d < k; ++d)
                xu[d] += lr * (err * yi[d] - reg * xu[d]);
        }
    }
}

void
AlsWorkload::updateItemCta(int gpu, int cta)
{
    const auto [lo, hi] = ctaRows(false, gpu, cta);
    const int k = _params.rank;
    const auto lr = static_cast<float>(_params.learningRate);
    const auto reg = static_cast<float>(_params.regularization);

    for (std::int64_t i = lo; i < hi; ++i) {
        float *yi = &_itemFactors[i * k];
        for (std::int64_t r = _itemOffsets[i]; r < _itemOffsets[i + 1];
             ++r) {
            const float *xu = &_userFactors[_itemUsers[r] * k];
            float err = _itemRatings[r];
            for (int d = 0; d < k; ++d)
                err -= xu[d] * yi[d];
            for (int d = 0; d < k; ++d)
                yi[d] += lr * (err * xu[d] - reg * yi[d]);
        }
    }
}

CtaWork
AlsWorkload::ctaFootprint(bool user_side, int gpu, int cta) const
{
    const auto [lo, hi] = ctaRows(user_side, gpu, cta);
    const auto ratings =
        static_cast<double>(ratingsInRows(user_side, lo, hi));
    const int k = _params.rank;

    CtaWork work;
    work.flops = ratings * 6.0 * k;
    // Both factor rows + rating + index per rating, row store once.
    work.localBytes = static_cast<std::uint64_t>(
        ratings * (8.0 * k + 8.0)
        + static_cast<double>(hi - lo) * 4.0 * k);
    return work;
}

Phase
AlsWorkload::buildPhase(int iter)
{
    const bool user_side = (iter % 2) == 0;
    const auto &bounds = user_side ? _userBounds : _itemBounds;
    const int k = _params.rank;

    Phase p;
    p.perGpu.resize(_numGpus);
    const auto &cta_bounds_all =
        user_side ? _userCtaBounds : _itemCtaBounds;

    for (int g = 0; g < _numGpus; ++g) {
        const std::int64_t rows = bounds[g + 1] - bounds[g];
        const int num_ctas = std::max(
            1, static_cast<int>(cta_bounds_all[g].size()) - 1);

        GpuPhaseWork &work = p.perGpu[g];
        work.kernel.name =
            user_side ? "als_update_users" : "als_update_items";
        work.kernel.numCtas = num_ctas;
        work.kernel.body = [this, g, user_side](
                               const CtaContext &ctx) {
            if (ctx.functional) {
                if (user_side)
                    updateUserCta(g, ctx.ctaId);
                else
                    updateItemCta(g, ctx.ctaId);
            }
            return ctaFootprint(user_side, g, ctx.ctaId);
        };
        work.bytesProduced =
            static_cast<std::uint64_t>(rows) * 4 * k;

        const std::vector<std::int64_t> *cta_bounds =
            &cta_bounds_all[g];
        const std::int64_t base = bounds[g];
        const std::uint64_t row_bytes = 4ULL * k;
        work.ctaRange = [cta_bounds, base, row_bytes](int cta) {
            const std::uint64_t lo =
                ((*cta_bounds)[cta] - base) * row_bytes;
            const std::uint64_t hi =
                ((*cta_bounds)[cta + 1] - base) * row_bytes;
            return ByteRange{lo, hi};
        };
    }
    return p;
}

std::vector<std::uint64_t>
AlsWorkload::peakBytesProduced()
{
    std::vector<std::uint64_t> peak = Workload::peakBytesProduced();
    if (numIterations() > 1) {
        // buildPhase() has no side effects, so reading iteration 1
        // ahead of the run is safe.
        const Phase odd = phase(1);
        for (std::size_t g = 0; g < peak.size(); ++g)
            peak[g] = std::max(peak[g],
                               odd.perGpu[g].totalBytesProduced());
    }
    return peak;
}

double
AlsWorkload::rmse() const
{
    const int k = _params.rank;
    double se = 0.0;
    const std::int64_t nnz = _params.numRatings;
    for (std::int64_t u = 0; u < _params.numUsers; ++u) {
        for (std::int64_t r = _userOffsets[u]; r < _userOffsets[u + 1];
             ++r) {
            const float *xu = &_userFactors[u * k];
            const float *yi = &_itemFactors[_userItems[r] * k];
            double pred = 0.0;
            for (int d = 0; d < k; ++d)
                pred += xu[d] * yi[d];
            const double e = _userRatings[r] - pred;
            se += e * e;
        }
    }
    return std::sqrt(se / static_cast<double>(nnz));
}

bool
AlsWorkload::verify() const
{
    const double final_rmse = rmse();
    return std::isfinite(final_rmse) && final_rmse < _initialRmse;
}

} // namespace proact
