/**
 * @file
 * Deterministic pseudo-random number generation and the sampling
 * distributions used by the workload models.
 *
 * All simulator randomness flows through Rng so that every experiment is
 * reproducible from a single 64-bit seed. The generator is
 * xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
 */

#ifndef OSCAR_SIM_RANDOM_HH_
#define OSCAR_SIM_RANDOM_HH_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace oscar
{

/**
 * Precomputed reduction state for a fixed bound.
 *
 * Rng::nextBounded spends most of its time in two 64-bit divisions
 * (the rejection threshold and the final modulo), and the simulator's
 * hottest draws — alias-table columns, burst spans, line scatters —
 * all use bounds that are fixed for the lifetime of the table or
 * region. FastBound hoists the divisions to construction time:
 *
 *  - power-of-two bounds reduce with a mask, exactly like
 *    nextBounded's fast path;
 *  - general bounds use the invariant-multiply trick: with
 *    M = floor(2^64 / b), the approximate quotient
 *    q = mulhi(M, x) satisfies q <= floor(x/b) <= q + 1 for every
 *    64-bit x (the error term r0*x / (b*2^64) is < 1 because
 *    r0 < b), so x % b is one multiply-high, one multiply and a
 *    conditional subtract.
 *
 * mod() is *exact* — not an approximation — so a draw loop using a
 * FastBound is byte-identical to one calling nextBounded(bound());
 * test_random.cc checks this property exhaustively over draw streams.
 */
class FastBound
{
  public:
    /** Reduction for bound 1 (every value reduces to 0). */
    FastBound() { *this = FastBound(1); }

    /** Precompute the reduction for `bound` > 0. */
    explicit FastBound(std::uint64_t bound)
        : b(bound), pow2Mask(0), magic(0), rejectThreshold(0),
          isPow2((bound & (bound - 1)) == 0)
    {
        oscar_assert(bound > 0);
        if (isPow2) {
            pow2Mask = bound - 1;
        } else {
            // floor((2^64 - 1) / b) == floor(2^64 / b) whenever b does
            // not divide 2^64, i.e. for every non-power-of-two b.
            magic = ~0ULL / bound;
            rejectThreshold = (0 - bound) % bound;
        }
    }

    /** The bound this reduction was built for. */
    std::uint64_t bound() const { return b; }

    /** Exactly x % bound(), division-free. */
    std::uint64_t
    mod(std::uint64_t x) const
    {
        if (isPow2)
            return x & pow2Mask;
        const auto wide =
            static_cast<unsigned __int128>(magic) * x;
        std::uint64_t q = static_cast<std::uint64_t>(wide >> 64);
        std::uint64_t r = x - q * b;
        if (r >= b)
            r -= b;
        return r;
    }

    /** Lemire rejection threshold (-b % b); 0 for powers of two. */
    std::uint64_t threshold() const { return rejectThreshold; }

    /** True when the bound is a power of two. */
    bool powerOfTwo() const { return isPow2; }

  private:
    std::uint64_t b;
    std::uint64_t pow2Mask;
    std::uint64_t magic;
    std::uint64_t rejectThreshold;
    bool isPow2;
};

/**
 * Precomputed integer threshold for Bernoulli draws.
 *
 * Rng::nextBool(p) computes d = (next64() >> 11) * 2^-53 and compares
 * d < p: an int->double conversion, a multiply and a floating compare
 * on every draw. All of that can be hoisted when p is fixed (region
 * reuse/streaming fractions, per-target write fractions): d is exactly
 * x / 2^53 for the 53-bit integer x = next64() >> 11, so
 *
 *     d < p  <=>  x < p * 2^53   (comparison of exact reals)
 *            <=>  x < ceil(p * 2^53)  (x integral)
 *
 * p * 2^53 is a power-of-two scaling, exact in double for p in [0, 1],
 * so the u64 threshold ceil(p * 2^53) makes nextBoolFast bit-identical
 * to nextBool — same single draw, same outcome — with the floating
 * point replaced by one shift and one integer compare.
 * test_random.cc sweeps this equivalence over probabilities and draw
 * streams.
 */
class BoolThreshold
{
  public:
    /** Threshold for probability 0 (always false). */
    BoolThreshold() = default;

    /** Precompute the threshold for probability `p` in [0, 1]. */
    explicit BoolThreshold(double p)
    {
        oscar_assert(p >= 0.0 && p <= 1.0);
        constexpr double kTwo53 = 9007199254740992.0; // 2^53
        t = static_cast<std::uint64_t>(std::ceil(p * kTwo53));
    }

    /** The integer threshold; draws strictly below it come out true. */
    std::uint64_t threshold() const { return t; }

  private:
    std::uint64_t t = 0;
};

/**
 * Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
 *
 * The raw draw and the uniform samplers are defined inline: the
 * execution engine and the address-space models draw tens of millions
 * of values per simulated second, and a cross-TU call per draw was a
 * measurable fraction of total runtime.
 */
class Rng
{
  public:
    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        oscar_assert(bound > 0);
        // Power-of-two bounds (line offsets, alias-table columns of
        // pow2 size) take a single draw and a mask. This is the value
        // the general path below produces for the same draw: 2^64 is
        // divisible by 2^k, so the rejection threshold is 0 and
        // r % 2^k == r & (2^k - 1). Same stream, no division.
        if ((bound & (bound - 1)) == 0)
            return next64() & (bound - 1);
        // Lemire-style rejection to remove modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next64();
            if (r >= threshold)
                return r % bound;
        }
    }

    /**
     * Uniform integer in [0, fb.bound()), byte-identical to
     * nextBounded(fb.bound()) — same draws, same rejections, same
     * value — with the per-draw divisions hoisted into the FastBound.
     */
    std::uint64_t
    nextBoundedFast(const FastBound &fb)
    {
        if (fb.powerOfTwo())
            return next64() & (fb.bound() - 1);
        const std::uint64_t threshold = fb.threshold();
        for (;;) {
            const std::uint64_t r = next64();
            if (r >= threshold)
                return fb.mod(r);
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /**
     * Bernoulli trial, byte-identical to nextBool(p) for the p the
     * threshold was built from — same draw, same outcome — with the
     * floating-point comparison hoisted into the BoolThreshold.
     */
    bool
    nextBoolFast(const BoolThreshold &bt)
    {
        return (next64() >> 11) < bt.threshold();
    }

    /** Standard normal via Box-Muller (cached second value). */
    double nextGaussian();

    /** Log-normally distributed value with the given underlying mu/sigma. */
    double nextLogNormal(double mu, double sigma);

    /** Exponentially distributed value with the given mean. */
    double nextExponential(double mean);

    /** Bounded Pareto sample on [lo, hi] with shape alpha. */
    double nextBoundedPareto(double lo, double hi, double alpha);

    /**
     * Fork an independent child stream.
     *
     * Used to give each core/workload its own decorrelated stream while
     * retaining global determinism.
     */
    Rng fork();

    /**
     * 64-bit digest of the full state (generator and Gaussian cache):
     * equal states give equal digests; distinct ones collide with
     * probability ~2^-64.
     */
    std::uint64_t digest() const;

    /** The 256-bit generator state (excludes the Gaussian cache). */
    using Position = std::array<std::uint64_t, 4>;

    /** Current generator state. */
    const Position &position() const { return state; }

    /**
     * Jump to a recorded generator state, keeping the Gaussian cache:
     * how a reference-tape replay lands where its draws would have.
     */
    void setPosition(const Position &position) { state = position; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state;
    double cachedGaussian = 0.0;
    bool hasCachedGaussian = false;
};

/**
 * Discrete distribution over arbitrary weights, sampled in O(1) via the
 * alias method (Vose).
 */
class AliasTable
{
  public:
    /** Build from non-negative weights; at least one must be positive. */
    explicit AliasTable(const std::vector<double> &weights);

    /** Sample an index in [0, size()). */
    std::size_t
    sample(Rng &rng) const
    {
        // columnBound is FastBound(size()): the draw stream is
        // byte-identical to nextBounded(probability.size()). The
        // column acceptance is the BoolThreshold transformation of
        // `rng.nextDouble() < probability[column]` — one draw either
        // way, identical outcome, no floating point.
        const std::size_t column = rng.nextBoundedFast(columnBound);
        return (rng.next64() >> 11) < probThreshold[column]
                   ? column
                   : alias[column];
    }

    /** Number of outcomes. */
    std::size_t size() const { return probability.size(); }

    /** Normalized probability of outcome i (for tests). */
    double outcomeProbability(std::size_t i) const;

  private:
    std::vector<double> probability;
    /** probability[] as BoolThreshold integers (see sample()). */
    std::vector<std::uint64_t> probThreshold;
    std::vector<std::size_t> alias;
    std::vector<double> normalized;
    /** Division-free column reduction; built once in the ctor. */
    FastBound columnBound;
};

/**
 * Zipf-distributed ranks over [0, n), sampled by inverse-CDF binary
 * search.
 *
 * Used to model cache-line popularity inside working-set regions: a few
 * hot lines absorb most references, producing realistic hit-rate curves.
 *
 * A bucket index precomputed at construction narrows each search: the
 * unit interval is cut into kBuckets equal slices and bucketLo[b]
 * holds the rank the full search would return for u = b/kBuckets.
 * The answer is monotone in u, so for any u in slice b it lies in
 * [bucketLo[b], bucketLo[b + 1]] and the binary search over that
 * subrange returns exactly what the full-range search would. With a
 * heavy skew most slices collapse to a single rank and sampling is
 * effectively O(1).
 *
 * The table (CDF plus bucket index) depends only on (n, s) and is
 * immutable after construction, so all distributions with the same
 * parameters share one table through a process-wide cache. Every
 * sweep point rebuilds its workload's regions from scratch — before
 * the cache, recomputing identical multi-megabyte CDFs was a visible
 * slice of sweep setup — and sharing also makes copies of a
 * distribution (workload snapshots) O(1).
 */
class ZipfDistribution
{
  public:
    /**
     * Bucket count for the index. A power of two, so u * kBuckets is
     * exact in floating point and slice membership b <= u*K < b+1 is
     * a true statement about u itself. The sampled rank is provably
     * independent of the bucket count, so changing it never perturbs
     * draw streams.
     *
     * 16 K buckets keep the index at 64 KiB — small enough to stay
     * warm in the host cache next to the CDF it brackets. (Larger
     * indexes make more buckets single-rank, which skips the CDF read
     * entirely, but measured on the fig5 shape the extra index
     * footprint evicts more than it saves.)
     */
    static constexpr std::size_t kBuckets = 16384;

    /**
     * @param n Number of ranks.
     * @param s Skew exponent; s = 0 degenerates to uniform.
     */
    ZipfDistribution(std::size_t n, double s);

    /** Sample a rank in [0, n). Rank 0 is the most popular. */
    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.nextDouble();
        const std::size_t b =
            static_cast<std::size_t>(u * static_cast<double>(kBuckets));
        // First rank whose cumulative mass covers u, searched only
        // within the slice's bracket.
        const Table &t = *table;
        std::size_t lo = t.bucketLo[b];
        std::size_t hi = t.bucketLo[b + 1];
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (t.cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** Number of ranks. */
    std::size_t size() const { return table->cdf.size(); }

    /** Probability mass of a given rank (for tests). */
    double rankProbability(std::size_t rank) const;

    /** Number of live cached tables (tests/diagnostics). */
    static std::size_t cachedTables();

  private:
    /** Immutable sampling table shared by all (n, s)-equal instances. */
    struct Table
    {
        std::vector<double> cdf;
        /**
         * kBuckets + 1 entries;
         * bucketLo[b] = lower_bound(cdf, b/kBuckets).
         */
        std::vector<std::uint32_t> bucketLo;
    };

    /** Build or fetch the cached table for (n, s). */
    static std::shared_ptr<const Table> tableFor(std::size_t n,
                                                 double s);

    std::shared_ptr<const Table> table;
};

} // namespace oscar

#endif // OSCAR_SIM_RANDOM_HH_
