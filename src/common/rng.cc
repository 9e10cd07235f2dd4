#include "common/rng.hh"

namespace ladm
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    return UniformIndex(bound)(*this);
}

uint64_t
Rng::nextZipf(uint64_t n, double alpha)
{
    return ZipfIndex(n, alpha)(*this);
}

ZipfIndex::ZipfIndex(uint64_t n, double alpha)
    : n_(n), uniform_(alpha <= 0.0), flat_(false), hi_(0.0), invExp_(0.0),
      uniformIdx_(uniform_ ? n : 0)
{
    if (n_ <= 1 || uniform_)
        return;
    const double exponent = 1.0 - alpha;
    flat_ = std::abs(exponent) < 1e-9;
    if (!flat_) {
        hi_ = std::pow(static_cast<double>(n), exponent);
        invExp_ = 1.0 / exponent;
    }
}

} // namespace ladm
