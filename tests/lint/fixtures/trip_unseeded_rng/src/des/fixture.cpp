// massf-check fixture: MUST trip `unseeded-rng` (three ways).
// Randomness outside the explicitly seeded massf::Rng breaks bit-identical
// reruns; std::random_device is nondeterministic by design.
#include <cstdlib>
#include <random>

int unreproducible() {
  std::mt19937 gen;  // default-constructed: fixed but hidden seed
  std::random_device entropy;
  std::srand(42);
  return static_cast<int>(gen() + entropy() +
                          static_cast<unsigned>(std::rand()));
}
