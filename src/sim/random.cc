/**
 * @file
 * Implementation of the deterministic RNG and samplers.
 */

#include "sim/random.hh"

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "sim/logging.hh"

namespace oscar
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // xoshiro must not start from the all-zero state; SplitMix64 output
    // of any seed (including 0) avoids that.
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitMix64(s);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    oscar_assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ULL;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next64());
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian = r * std::sin(theta);
    hasCachedGaussian = true;
    return r * std::cos(theta);
}

double
Rng::nextLogNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * nextGaussian());
}

double
Rng::nextExponential(double mean)
{
    oscar_assert(mean > 0.0);
    double u = 0.0;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::nextBoundedPareto(double lo, double hi, double alpha)
{
    oscar_assert(lo > 0.0 && hi > lo && alpha > 0.0);
    const double u = nextDouble();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng
Rng::fork()
{
    return Rng(next64());
}

std::uint64_t
Rng::digest() const
{
    // splitmix64's finalizer, chained over every state field.
    const auto mix = [](std::uint64_t h, std::uint64_t v) {
        h ^= v + 0x9E3779B97F4A7C15ULL;
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
        h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
        return h ^ (h >> 31);
    };
    std::uint64_t h = 0;
    for (std::uint64_t word : state)
        h = mix(h, word);
    std::uint64_t gaussian = 0;
    std::memcpy(&gaussian, &cachedGaussian, sizeof(gaussian));
    h = mix(h, gaussian);
    return mix(h, hasCachedGaussian ? 1 : 0);
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    oscar_assert(!weights.empty());
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) {
        oscar_assert(w >= 0.0);
        total += w;
    }
    oscar_assert(total > 0.0);

    normalized.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        normalized[i] = weights[i] / total;

    probability.assign(n, 0.0);
    alias.assign(n, 0);

    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i)
        scaled[i] = normalized[i] * static_cast<double>(n);

    std::vector<std::size_t> small;
    std::vector<std::size_t> large;
    for (std::size_t i = 0; i < n; ++i) {
        if (scaled[i] < 1.0)
            small.push_back(i);
        else
            large.push_back(i);
    }

    while (!small.empty() && !large.empty()) {
        const std::size_t s = small.back();
        small.pop_back();
        const std::size_t l = large.back();
        large.pop_back();
        probability[s] = scaled[s];
        alias[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if (scaled[l] < 1.0)
            small.push_back(l);
        else
            large.push_back(l);
    }
    for (std::size_t l : large)
        probability[l] = 1.0;
    for (std::size_t s : small)
        probability[s] = 1.0;

    // Integer acceptance thresholds: x < ceil(p * 2^53) is exactly
    // `(x * 2^-53) < p` for the 53-bit draw x (see BoolThreshold).
    // Computed raw rather than through BoolThreshold because Vose
    // residues can land a hair above 1.0; the equivalence holds for
    // any p >= 0.
    constexpr double kTwo53 = 9007199254740992.0;
    probThreshold.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        probThreshold[i] = static_cast<std::uint64_t>(
            std::ceil(probability[i] * kTwo53));
    }

    columnBound = FastBound(n);
}

double
AliasTable::outcomeProbability(std::size_t i) const
{
    oscar_assert(i < normalized.size());
    return normalized[i];
}

namespace
{

/** Process-wide Zipf table cache, keyed by (n, bit pattern of s). */
struct ZipfTableCache
{
    std::mutex mutex;
    std::map<std::pair<std::size_t, std::uint64_t>,
             std::shared_ptr<const void>>
        tables;
};

ZipfTableCache &
zipfTableCache()
{
    static ZipfTableCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const ZipfDistribution::Table>
ZipfDistribution::tableFor(std::size_t n, double s)
{
    ZipfTableCache &cache = zipfTableCache();
    const auto key =
        std::make_pair(n, std::bit_cast<std::uint64_t>(s));
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.tables.find(key);
        if (it != cache.tables.end()) {
            return std::static_pointer_cast<const Table>(it->second);
        }
    }

    // Build outside the lock: tables can be megabytes and parallel
    // sweep workers frequently want different keys. Two threads
    // racing on the same key build twice; the insert below keeps the
    // first and both results are identical.
    auto table = std::make_shared<Table>();
    table->cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        table->cdf[i] = sum;
    }
    for (double &c : table->cdf)
        c /= sum;
    table->cdf.back() = 1.0;

    // Bucket index: for each slice boundary b/kBuckets, record the
    // rank the full lower-bound search sample() performs would
    // return. Both the boundary values and the CDF are monotone, so
    // one linear merge produces exactly lower_bound(cdf, b/kBuckets)
    // for every b without kBuckets separate binary searches.
    table->bucketLo.resize(kBuckets + 1);
    {
        const std::size_t last = table->cdf.size() - 1;
        std::size_t lo = 0;
        for (std::size_t b = 0; b <= kBuckets; ++b) {
            const double u =
                static_cast<double>(b) / static_cast<double>(kBuckets);
            while (lo < last && table->cdf[lo] < u)
                ++lo;
            table->bucketLo[b] = static_cast<std::uint32_t>(lo);
        }
    }

    std::lock_guard<std::mutex> lock(cache.mutex);
    auto [it, inserted] = cache.tables.try_emplace(key, table);
    return std::static_pointer_cast<const Table>(it->second);
}

std::size_t
ZipfDistribution::cachedTables()
{
    ZipfTableCache &cache = zipfTableCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.tables.size();
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s)
{
    oscar_assert(n > 0);
    oscar_assert(s >= 0.0);
    table = tableFor(n, s);
}

double
ZipfDistribution::rankProbability(std::size_t rank) const
{
    oscar_assert(rank < table->cdf.size());
    if (rank == 0)
        return table->cdf[0];
    return table->cdf[rank] - table->cdf[rank - 1];
}

} // namespace oscar
