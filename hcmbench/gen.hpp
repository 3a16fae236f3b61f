// Seeded input generation. Everything a workload feeds the program —
// payload classes and sizes, the call mix, the churn schedule, event
// triggers and probe targets — comes from here, derived from --seed
// alone, and is built before any timing starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/interface_desc.hpp"
#include "common/value.hpp"

namespace hcmbench {

// splitmix64: small, fast and stable across platforms and compilers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t s_;
};

// Order-sensitive digest of a value tree (maps hash in key order).
std::int64_t value_digest(const hcm::Value& v);
std::int64_t args_digest(const hcm::ValueList& args);

// --- rpc-soap / rpc-binary ------------------------------------------------
enum class PayloadClass { kControl, kStatus, kBulk };

// One service the rpc callee exposes. Indices 0..kLamps-1 are lamps
// with the fig. 4 control interface (turnOn, turnOff, getStatus); then
// come climate-1 (status maps) and media-1 (bulk uploads).
constexpr int kLamps = 4;
constexpr int kClimateSvc = kLamps;
constexpr int kMediaSvc = kLamps + 1;
struct RpcService {
  std::string name;
  hcm::InterfaceDesc iface;
};

struct RpcOp {
  int service = 0;
  std::string method;
  PayloadClass cls = PayloadClass::kControl;
  hcm::ValueList args;
  hcm::Value expect;
};

// What the rpc callee does, shared by the live callee and the
// generator's model of it. Lamps keep their on/off state (getStatus
// returns {"powered": bool}); Climate.getReport returns the status map
// its arguments describe; every other method returns a digest of its
// arguments.
class RpcCallee {
 public:
  explicit RpcCallee(std::vector<bool> lamps_on) : on_(std::move(lamps_on)) {}
  hcm::Value reply(int service, const std::string& method,
                   const hcm::ValueList& args);

 private:
  std::vector<bool> on_;
};

struct RpcInputs {
  std::vector<RpcService> services;
  // The callee's lamp states before the first call: the states the op
  // list leaves behind, so the list can be replayed in a loop and each
  // getStatus still expects what the last command before it set.
  std::vector<bool> lamps_on;
  std::vector<RpcOp> ops;
};

// Calls per deck: 70 control (35 turnOn/turnOff, 35 getStatus on a
// seeded lamp), 27 status-map (14 pushStatus, 13 getReport), 3 bulk
// (> 16 KB), in a seeded order; the seed also fills every payload.
constexpr std::size_t kDeck = 100;
RpcInputs make_rpc_inputs(std::uint64_t seed, std::size_t decks);

// --- home ----------------------------------------------------------------------
enum class HomeKind {
  kJiniToLamp,        // Jini client -> X10 lamp turnOn/turnOff (fig. 4)
  kRemoteToLaserdisc, // X10 remote keypress -> Jini laserdisc (fig. 5)
  kHaviToJini,        // HAVi client -> laserdisc getStatus
  kJiniToCamera,      // Jini client -> HAVi DV camera getStatus
  kSelectInput,       // Jini client -> HAVi display selectInput(text)
  kDisplayStatus,     // Jini client -> HAVi display getStatus
  kChurn,             // a Jini service arrives or departs, then refresh_all
};
constexpr int kHomeKinds = 7;
const char* to_string(HomeKind k);

struct HomeOp {
  HomeKind kind = HomeKind::kJiniToLamp;
  bool on = false;   // lamp / laserdisc target state
  std::string text;  // selectInput: a display input name
};
// Per deck of 50: 26 display calls (13 selectInput + 13 getStatus), 6
// laserdisc and 4 camera getStatus, 6 lamp commands, 5 keypresses and
// 3 churn rounds, in a seeded order; selectInput picks a seeded input.
constexpr std::size_t kHomeDeck = 50;
std::vector<HomeOp> make_home_ops(std::uint64_t seed, std::size_t decks);

// --- city -----------------------------------------------------------------
// Target islands of the probe calls, seeded.
std::vector<std::uint32_t> make_city_targets(std::uint64_t seed,
                                             std::size_t islands,
                                             std::size_t n);

// Digest of a whole generated input set, for the stability self-test.
std::uint64_t inputs_digest(const RpcInputs& in);
std::uint64_t inputs_digest(const std::vector<HomeOp>& ops);

}  // namespace hcmbench
