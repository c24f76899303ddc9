// Hostile text inputs: the netdesc reader must reject malformed
// files with std::invalid_argument (its documented error) — never with
// another exception, undefined behaviour, or an allocation sized by an
// unchecked header field. ctest label "hostile"; the ckpt-asan/ckpt-ubsan
// presets run it under the sanitizers.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/mapper.hpp"
#include "core/weights.hpp"
#include "routing/routing.hpp"
#include "topology/netdesc.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

TEST(HostileNetdesc, OutOfRangeNumbersAreRejected) {
  const std::string nodes = "router r0 as=0\nhost h0 as=0\n";
  EXPECT_NO_THROW(topology::read_netdesc(nodes + "link h0 r0 1Gbps 1ms\n"));
  // 2³² + 1 would truncate to AS 1.
  EXPECT_THROW(topology::read_netdesc("router r0 as=4294967297\n"),
               std::invalid_argument);
  EXPECT_THROW(topology::read_netdesc(nodes + "link h0 r0 1e400Gbps 1ms\n"),
               std::invalid_argument);
  EXPECT_THROW(topology::read_netdesc(nodes + "link h0 r0 1Gbps 1e999s\n"),
               std::invalid_argument);
}

TEST(HostileNetdesc, LargeAsIdsMapWithoutATablePerAsId) {
  // AS ids near INT_MAX are valid netdesc input. The memory weights count
  // routers per AS; a table indexed by AS id would take 8 GB here, so the
  // mapping runs in a child process capped at 3 GB of address space. The
  // sanitizers reserve terabytes of shadow memory up front, so their
  // builds map without the cap.
  const topology::Network net = topology::read_netdesc(
      "router r0 as=2000000000\nrouter r1 as=2000000000\n"
      "router r2 as=2147483647\nhost h0 as=2000000000\n"
      "host h1 as=2147483647\n"
      "link r0 r1 1Gbps 1ms\nlink r1 r2 1Gbps 2ms\n"
      "link h0 r0 100Mbps 0.1ms\nlink h1 r2 100Mbps 0.1ms\n");
  const auto map_capped = [&net] {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    const rlimit cap{3UL << 30, 3UL << 30};
    if (setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(3);
#endif
    const routing::RoutingTables routes = routing::RoutingTables::build(net);
    mapping::MappingOptions options;
    options.engines = 2;
    const mapping::MappingResult result =
        mapping::Mapper(net, routes).map_top(options);
    const std::vector<double> weights = mapping::memory_weights(net);
    const bool ok = result.node_engine.size() == 5 && weights[0] == 14.0 &&
                    weights[2] == 11.0 && weights[3] == 1.0;
    std::_Exit(ok ? 0 : 1);
  };
  EXPECT_EXIT(map_capped(), ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Seeded mutation of valid files
// ---------------------------------------------------------------------------

const char* const kHostileIntegers[] = {
    "0", "-1", "2147483648", "4294967297", "9223372036854775807",
    "99999999999999999999", "1e400"};

/// Apply `count` seeded mutations — byte flips, truncations, and a
/// numeric token replaced by a hostile integer — to `valid`, hand each to
/// `parse`, and require that only std::invalid_argument escapes. Returns
/// {rejected, accepted}.
template <class Parse>
std::pair<int, int> mutate_and_parse(const std::string& valid, int count,
                                     std::uint64_t seed, const Parse& parse) {
  // Start offsets of the digit runs: the inflated-integer targets.
  std::vector<std::size_t> numbers;
  for (std::size_t at = 0; at < valid.size(); ++at)
    if (std::isdigit(static_cast<unsigned char>(valid[at])) != 0 &&
        (at == 0 || std::isdigit(static_cast<unsigned char>(valid[at - 1])) ==
                        0))
      numbers.push_back(at);
  EXPECT_FALSE(numbers.empty());

  Rng rng(seed);
  int rejected = 0;
  int accepted = 0;
  for (int m = 0; m < count; ++m) {
    std::string text = valid;
    std::string what;
    switch (m % 3) {
      case 0: {  // byte flips
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = rng() % text.size();
          text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
          what += " flip@" + std::to_string(at);
        }
        break;
      }
      case 1: {  // truncation
        const std::size_t keep = rng() % text.size();
        text.resize(keep);
        what = " truncate@" + std::to_string(keep);
        break;
      }
      default: {  // inflated integer
        const std::size_t at = numbers[rng() % numbers.size()];
        std::size_t end = at;
        while (end < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[end])) != 0)
          ++end;
        const char* value =
            kHostileIntegers[rng() % std::size(kHostileIntegers)];
        text.replace(at, end - at, value);
        what = " int@" + std::to_string(at) + "=" + value;
        break;
      }
    }
    try {
      parse(text);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << m << what << " escaped as "
                    << typeid(e).name() << ": " << e.what();
    }
  }
  return {rejected, accepted};
}

TEST(InputMutation, OnlyArgumentErrorsEscapeReadNetdesc) {
  const std::string valid =
      "# two ASes, a core link, and four stub hosts\n"
      "router core0 as=0\n"
      "router core1 as=1\n"
      "router edge10 as=1\n"
      "host h0 as=0\n"
      "host h1 as=0\n"
      "host h2 as=1\n"
      "host h3 as=1\n"
      "link h0 core0 100Mbps 0.1ms\n"
      "link h1 core0 100Mbps 0.1ms\n"
      "link core0 core1 1Gbps 2ms\n"
      "link core1 edge10 1Gbps 0.5ms\n"
      "link h2 edge10 10Mbps 50us\n"
      "link h3 core1 1e8bps 0.001s\n";
  ASSERT_EQ(topology::read_netdesc(valid).node_count(), 7);
  const auto [rejected, accepted] =
      mutate_and_parse(valid, 900, 20261018, [](const std::string& text) {
        (void)topology::read_netdesc(text);
      });
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);  // flips inside comments and numbers parse fine
}

}  // namespace
}  // namespace massf
