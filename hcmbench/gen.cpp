#include "gen.hpp"

#include <cstring>
#include <iterator>

#include "harness.hpp"

namespace hcmbench {

using hcm::InterfaceDesc;
using hcm::MethodDesc;
using hcm::Value;
using hcm::ValueList;
using hcm::ValueMap;
using hcm::ValueType;

namespace {

// FNV-style mixing a word at a time, so digesting a 48 KB bulk payload
// stays a small share of the call it checks.
std::uint64_t mix_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t digest_into(std::uint64_t h, const Value& v) {
  h = fnv_mix(h, static_cast<std::uint64_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      return h;
    case ValueType::kBool:
      return fnv_mix(h, v.as_bool() ? 1 : 0);
    case ValueType::kInt:
      return fnv_mix(h, static_cast<std::uint64_t>(v.as_int()));
    case ValueType::kDouble: {
      const double d = v.as_double();
      return mix_bytes(h, &d, sizeof d);
    }
    case ValueType::kString:
      h = fnv_mix(h, v.as_string().size());
      return mix_bytes(h, v.as_string().data(), v.as_string().size());
    case ValueType::kBytes:
      h = fnv_mix(h, v.as_bytes().size());
      return mix_bytes(h, v.as_bytes().data(), v.as_bytes().size());
    case ValueType::kList:
      h = fnv_mix(h, v.as_list().size());
      for (const Value& e : v.as_list()) h = digest_into(h, e);
      return h;
    case ValueType::kMap:
      h = fnv_mix(h, v.as_map().size());
      for (const auto& [k, e] : v.as_map()) {
        h = mix_bytes(h, k.data(), k.size());
        h = digest_into(h, e);
      }
      return h;
  }
  return h;
}

// Printable text with the XML-special characters the SOAP layer must
// escape and restore.
std::string text(Rng& rng, std::size_t n) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_.<>&";
  std::string s(n, ' ');
  for (char& c : s) c = kAlphabet[rng.next() % (sizeof kAlphabet - 1)];
  s.front() = 'x';  // no leading/trailing blanks to normalise away
  s.back() = 'x';
  return s;
}

// The status map Climate.getReport returns and Climate.pushStatus
// carries: `entries` sensor readings of mixed scalar types, ~55 bytes
// of SOAP each, derived from (zone, salt) alone.
ValueMap status_map(const std::string& zone, std::int64_t entries,
                    std::int64_t salt) {
  Rng rng(static_cast<std::uint64_t>(salt) ^ 0x5bd1e995ULL);
  ValueMap m;
  m.emplace("zone", Value(zone));
  for (std::int64_t i = 0; i < entries; ++i) {
    std::string key = "sensor" + std::to_string(i);
    switch (rng.next() % 3) {
      case 0:
        m.emplace(std::move(key), Value(rng.range(-40'000, 40'000)));
        break;
      case 1:
        m.emplace(std::move(key), Value(rng.next() % 2 == 0));
        break;
      default:
        m.emplace(std::move(key),
                  Value(text(rng, static_cast<std::size_t>(rng.range(6, 18)))));
    }
  }
  return m;
}

}  // namespace

std::int64_t value_digest(const Value& v) {
  return static_cast<std::int64_t>(digest_into(kFnvSeed, v) >> 1);
}

std::int64_t args_digest(const ValueList& args) {
  std::uint64_t h = fnv_mix(kFnvSeed, args.size());
  for (const Value& a : args) h = digest_into(h, a);
  return static_cast<std::int64_t>(h >> 1);
}

namespace {

InterfaceDesc lamp_interface() {
  // The fig. 4 control signatures (examples/quickstart.cpp).
  return InterfaceDesc{
      "Lamp",
      {MethodDesc{"turnOn", {}, ValueType::kBool, false},
       MethodDesc{"turnOff", {}, ValueType::kBool, false},
       MethodDesc{"getStatus", {}, ValueType::kMap, false}}};
}

InterfaceDesc climate_interface() {
  return InterfaceDesc{
      "Climate",
      {MethodDesc{"pushStatus",
                  {{"zone", ValueType::kString}, {"status", ValueType::kMap}},
                  ValueType::kInt,
                  false},
       MethodDesc{"getReport",
                  {{"zone", ValueType::kString},
                   {"entries", ValueType::kInt},
                   {"salt", ValueType::kInt}},
                  ValueType::kMap,
                  false}}};
}

InterfaceDesc media_interface() {
  return InterfaceDesc{"Media",
                       {MethodDesc{"upload",
                                   {{"name", ValueType::kString},
                                    {"data", ValueType::kBytes}},
                                   ValueType::kInt,
                                   false}}};
}

// Inputs a home display switches between; DisplayFcm starts on "1394".
constexpr const char* kDisplayInputs[] = {"1394",      "hdmi-1",  "hdmi-2",
                                          "component", "s-video", "composite",
                                          "tuner",     "vga",     "antenna"};

}  // namespace

Value RpcCallee::reply(int service, const std::string& method,
                       const ValueList& args) {
  if (service < kLamps) {
    auto lamp = static_cast<std::size_t>(service);
    if (method == "turnOn" || method == "turnOff") {
      on_[lamp] = method == "turnOn";
      return Value(true);
    }
    return Value(ValueMap{{"powered", Value(static_cast<bool>(on_[lamp]))}});
  }
  if (method == "getReport" && args.size() == 3 && args[0].is_string() &&
      args[1].is_int() && args[2].is_int()) {
    return Value(status_map(args[0].as_string(), args[1].as_int(),
                            args[2].as_int()));
  }
  return Value(args_digest(args));
}

RpcInputs make_rpc_inputs(std::uint64_t seed, std::size_t decks) {
  Rng rng(seed);
  RpcInputs in;
  for (int l = 0; l < kLamps; ++l) {
    in.services.push_back({"lamp-" + std::to_string(l + 1), lamp_interface()});
  }
  in.services.push_back({"climate-1", climate_interface()});
  in.services.push_back({"media-1", media_interface()});

  in.ops.reserve(decks * kDeck);
  for (std::size_t d = 0; d < decks; ++d) {
    // Deck composition is fixed; only order and contents are seeded.
    std::vector<int> kinds;
    kinds.insert(kinds.end(), 35, 0);  // Lamp.turnOn / turnOff
    kinds.insert(kinds.end(), 35, 1);  // Lamp.getStatus
    kinds.insert(kinds.end(), 14, 2);  // Climate.pushStatus
    kinds.insert(kinds.end(), 13, 3);  // Climate.getReport
    kinds.insert(kinds.end(), 3, 4);   // Media.upload
    rng.shuffle(kinds);
    for (int k : kinds) {
      RpcOp op;
      const auto lamp = static_cast<int>(rng.next() % kLamps);
      switch (k) {
        case 0:
          op = {lamp, rng.next() % 2 == 0 ? "turnOn" : "turnOff",
                PayloadClass::kControl, {}, {}};
          break;
        case 1:
          op = {lamp, "getStatus", PayloadClass::kControl, {}, {}};
          break;
        case 2: {
          const std::string zone = "zone-" + std::to_string(rng.range(1, 64));
          op = {kClimateSvc, "pushStatus", PayloadClass::kStatus,
                {Value(zone),
                 Value(status_map(zone, rng.range(18, 34),
                                  static_cast<std::int64_t>(rng.next() >> 2)))},
                {}};
          break;
        }
        case 3:
          op = {kClimateSvc, "getReport", PayloadClass::kStatus,
                {Value("zone-" + std::to_string(rng.range(1, 64))),
                 Value(rng.range(18, 34)),
                 Value(static_cast<std::int64_t>(rng.next() >> 2))},
                {}};
          break;
        default: {
          // Bulk: 20-28 KB of bytes, larger than one 16 KB pool block
          // even before base64 expansion on the SOAP wire.
          hcm::Bytes data(static_cast<std::size_t>(rng.range(20'000, 28'000)));
          for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
          op = {kMediaSvc, "upload", PayloadClass::kBulk,
                {Value("clip-" + std::to_string(rng.range(1, 999)) + ".dv"),
                 Value(std::move(data))},
                {}};
        }
      }
      in.ops.push_back(std::move(op));
    }
  }

  // The lamp states the list leaves behind (every lamp starts off); the
  // callee starts from them, and the expected replies follow.
  in.lamps_on.assign(kLamps, false);
  for (const RpcOp& op : in.ops) {
    if (op.method == "turnOn" || op.method == "turnOff") {
      in.lamps_on[static_cast<std::size_t>(op.service)] = op.method == "turnOn";
    }
  }
  RpcCallee model(in.lamps_on);
  for (RpcOp& op : in.ops) {
    op.expect = model.reply(op.service, op.method, op.args);
  }
  return in;
}

const char* to_string(HomeKind k) {
  switch (k) {
    case HomeKind::kJiniToLamp: return "jini->x10 lamp";
    case HomeKind::kRemoteToLaserdisc: return "x10 remote->jini laserdisc";
    case HomeKind::kHaviToJini: return "havi->jini laserdisc getStatus";
    case HomeKind::kJiniToCamera: return "jini->havi camera getStatus";
    case HomeKind::kSelectInput: return "jini->havi display selectInput";
    case HomeKind::kDisplayStatus: return "jini->havi display getStatus";
    case HomeKind::kChurn: return "jini service churn";
  }
  return "?";
}

std::vector<HomeOp> make_home_ops(std::uint64_t seed, std::size_t decks) {
  Rng rng(seed ^ 0x686f6d65ULL);
  std::vector<HomeOp> ops;
  ops.reserve(decks * kHomeDeck);
  for (std::size_t d = 0; d < decks; ++d) {
    std::vector<HomeKind> kinds;
    kinds.insert(kinds.end(), 13, HomeKind::kSelectInput);
    kinds.insert(kinds.end(), 13, HomeKind::kDisplayStatus);
    kinds.insert(kinds.end(), 6, HomeKind::kHaviToJini);
    kinds.insert(kinds.end(), 4, HomeKind::kJiniToCamera);
    kinds.insert(kinds.end(), 6, HomeKind::kJiniToLamp);
    kinds.insert(kinds.end(), 5, HomeKind::kRemoteToLaserdisc);
    kinds.insert(kinds.end(), 3, HomeKind::kChurn);
    rng.shuffle(kinds);
    for (HomeKind k : kinds) {
      HomeOp op{k, rng.next() % 2 == 0, {}};
      if (k == HomeKind::kSelectInput) {
        op.text = kDisplayInputs[rng.next() % std::size(kDisplayInputs)];
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

std::vector<std::uint32_t> make_city_targets(std::uint64_t seed,
                                             std::size_t islands,
                                             std::size_t n) {
  Rng rng(seed ^ 0x63697479ULL);
  std::vector<std::uint32_t> targets(n);
  for (std::uint32_t& t : targets) {
    t = static_cast<std::uint32_t>(rng.next() % islands);
  }
  return targets;
}

std::uint64_t inputs_digest(const RpcInputs& in) {
  std::uint64_t h = kFnvSeed;
  for (const RpcService& svc : in.services) {
    h = mix_bytes(h, svc.name.data(), svc.name.size());
  }
  for (const RpcOp& op : in.ops) {
    h = fnv_mix(h, static_cast<std::uint64_t>(op.service));
    h = mix_bytes(h, op.method.data(), op.method.size());
    h = fnv_mix(h, static_cast<std::uint64_t>(args_digest(op.args)));
    h = fnv_mix(h, static_cast<std::uint64_t>(value_digest(op.expect)));
  }
  return h;
}

std::uint64_t inputs_digest(const std::vector<HomeOp>& ops) {
  std::uint64_t h = kFnvSeed;
  for (const HomeOp& op : ops) {
    h = fnv_mix(h, static_cast<std::uint64_t>(op.kind));
    h = fnv_mix(h, op.on ? 1 : 0);
    h = mix_bytes(h, op.text.data(), op.text.size());
  }
  return h;
}

}  // namespace hcmbench
