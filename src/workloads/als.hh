/**
 * @file
 * Alternating Least Squares via SGD (paper Sec. IV-C).
 *
 * Matrix factorization for recommenders: R ~= X Y^T with rank-k
 * factors. Following the paper, each iteration fixes one side and
 * updates the other by stochastic gradient descent over the known
 * ratings: even iterations update user factors (partitioned across
 * GPUs by user), odd iterations update item factors (partitioned by
 * item). The updated factor matrix is the PROACT region each
 * iteration. Factor rows are updated in rating order, so remote
 * stores coalesce poorly — this is the workload where the paper
 * measures 26x more inline store transactions than decoupled
 * transfers (Sec. V-B).
 */

#ifndef PROACT_WORKLOADS_ALS_HH
#define PROACT_WORKLOADS_ALS_HH

#include "workloads/workload.hh"

#include <cstdint>
#include <vector>

namespace proact {

/** SGD-based alternating matrix factorization. */
class AlsWorkload : public Workload
{
  public:
    struct Params
    {
        std::int64_t numUsers = 1 << 16;
        std::int64_t numItems = 1 << 16;
        std::int64_t numRatings = 1 << 21;
        int rank = 8;
        double learningRate = 0.05;
        double regularization = 0.02;
        int iterations = 8;
        int rowsPerCta = 128;
        std::uint64_t seed = 1234;
    };

    AlsWorkload() : AlsWorkload(Params{}) {}
    explicit AlsWorkload(Params params) : _params(params) {}

    std::string name() const override { return "ALS"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    /**
     * Even iterations update users over the user partition, odd ones
     * items over the item partition, so a GPU's output size
     * alternates; the peak covers both.
     */
    std::vector<std::uint64_t> peakBytesProduced() override;

    TrafficProfile
    traffic() const override
    {
        // Factor-row elements update in rating order: poor wire
        // coalescing (the paper's 26x store-transaction blowup).
        return TrafficProfile{8, false};
    }

    bool verify() const override;

    /** Root-mean-square error over the known ratings. */
    double rmse() const;

  private:
    Params _params;

    /** Ratings in user-major CSR and item-major CSC. */
    std::vector<std::int64_t> _userOffsets;
    std::vector<std::int32_t> _userItems;
    std::vector<float> _userRatings;
    std::vector<std::int64_t> _itemOffsets;
    std::vector<std::int32_t> _itemUsers;
    std::vector<float> _itemRatings;

    std::vector<float> _userFactors; ///< numUsers x rank.
    std::vector<float> _itemFactors; ///< numItems x rank.

    std::vector<std::int64_t> _userBounds;
    std::vector<std::int64_t> _itemBounds;

    /** Rating-balanced CTA boundaries per GPU, per side. */
    std::vector<std::vector<std::int64_t>> _userCtaBounds;
    std::vector<std::vector<std::int64_t>> _itemCtaBounds;

    double _initialRmse = 0.0;

    void updateUserCta(int gpu, int cta);
    void updateItemCta(int gpu, int cta);
    CtaWork ctaFootprint(bool user_side, int gpu, int cta) const;
    std::pair<std::int64_t, std::int64_t>
    ctaRows(bool user_side, int gpu, int cta) const;
    std::int64_t ratingsInRows(bool user_side, std::int64_t lo,
                               std::int64_t hi) const;
};

} // namespace proact

#endif // PROACT_WORKLOADS_ALS_HH
