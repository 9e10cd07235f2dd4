/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All randomized inputs (graphs, histogram keys, random access streams) are
 * derived from an Rng seeded explicitly, so every experiment is exactly
 * reproducible run-to-run.
 */

#ifndef LADM_COMMON_RNG_HH
#define LADM_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace ladm
{


/**
 * xoshiro256** generator. Small, fast, and good enough statistical quality
 * for synthetic-workload generation; not for cryptography.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion so nearby seeds give unrelated streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. See UniformIndex. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0); // 2^53
    }

    /**
     * Sample from a truncated power-law (Zipf-like) distribution over
     * [0, n). Used for scale-free graph degree distributions. See
     * ZipfIndex.
     *
     * @param n     domain size
     * @param alpha skew (larger = more skewed); alpha <= 0 degrades to
     *              uniform
     */
    uint64_t nextZipf(uint64_t n, double alpha);

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

/**
 * Uniform integer in [0, bound) for a bound fixed across many draws, by
 * rejection sampling: raw draws below 2^64 mod bound are rejected, and
 * an accepted draw r yields r % bound. The threshold is computed once.
 * A power-of-two bound has threshold 0 and r % bound == r & (bound - 1),
 * so it draws through a mask. A bound <= 1 returns 0 without drawing.
 *
 * Synthesized inputs depend on every value drawn here, so the draws and
 * results must stay exact: no multiply-shift reduction
 * (docs/performance.md "Workload synthesis").
 */
class UniformIndex
{
  public:
    explicit UniformIndex(uint64_t bound)
        : bound_(bound),
          mask_(bound > 1 && (bound & (bound - 1)) == 0 ? bound - 1 : 0),
          threshold_(bound > 1 ? -bound % bound : 0)
    {
    }

    uint64_t
    operator()(Rng &rng) const
    {
        if (mask_ != 0)
            return rng.next() & mask_;
        if (bound_ <= 1)
            return 0;
        for (;;) {
            const uint64_t r = rng.next();
            if (r >= threshold_)
                return r % bound_;
        }
    }

  private:
    uint64_t bound_;
    uint64_t mask_;      ///< bound - 1 for a power-of-two bound >= 2, else 0
    uint64_t threshold_; ///< smallest accepted raw draw
};

/**
 * Truncated power-law (Zipf-like) index in [0, n) for a domain and skew
 * fixed across many draws: an inverse-CDF approximation of a continuous
 * bounded Pareto, quantized. Cheap (no per-domain tables) and adequately
 * skewed for graph synthesis.
 *
 * The per-domain terms n^(1-alpha) and 1/(1-alpha) are evaluated once.
 * IEEE-754 makes that bit-identical to evaluating them on every draw as
 * long as their operands stay the same. alpha <= 0 draws uniformly;
 * n <= 1 returns 0 without drawing.
 */
class ZipfIndex
{
  public:
    ZipfIndex(uint64_t n, double alpha);

    uint64_t
    operator()(Rng &rng) const
    {
        if (n_ <= 1)
            return 0;
        if (uniform_)
            return uniformIdx_(rng);
        const double u = rng.nextDouble();
        const double v =
            flat_ ? std::pow(static_cast<double>(n_), u)
                  : std::pow(u * (hi_ - 1.0) + 1.0, invExp_);
        const uint64_t idx = static_cast<uint64_t>(v) - 1;
        return idx >= n_ ? n_ - 1 : idx;
    }

  private:
    uint64_t n_;
    bool uniform_;  ///< alpha <= 0
    bool flat_;     ///< |1 - alpha| < 1e-9: v = n^u
    double hi_;     ///< n^(1 - alpha)
    double invExp_; ///< 1 / (1 - alpha)
    UniformIndex uniformIdx_;
};

} // namespace ladm

#endif // LADM_COMMON_RNG_HH
