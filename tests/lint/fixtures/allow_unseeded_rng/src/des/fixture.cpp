// massf-check fixture: MUST be clean.
// An audited engine use (e.g. interop with a third-party API that demands a
// std:: engine) stays visible through the suppression comment.
#include <random>

unsigned audited_engine(unsigned seed) {
  // massf-check: allow(unseeded-rng)
  std::mt19937 gen(seed);  // explicitly seeded from the experiment seed
  return static_cast<unsigned>(gen());
}
