// Stage replay: the twelve hot-path stages of one SOAP call (soap
// encode, http serialize, net send, delivery, http parse, soap decode —
// request, then response) driven one by one through the layers'
// public functions on a workload's generated messages, each inside its
// own span. Also the wire tap that captures what a live VSG call puts
// on the backbone, so the replay can be checked byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/block_stream.hpp"
#include "harness.hpp"
#include "http/message.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "soap/envelope.hpp"

namespace hcmbench {

struct ReplayMsg {
  std::string path;    // HTTP target, "/vsg/<service>"
  std::string ns;      // "urn:hcm:<interface>"
  std::string method;
  hcm::soap::NamedValues params;
  hcm::Value result;
};

// The exact bytes the VSG's SOAP client and service put on the wire
// for `m` sent to `dest` (tracing off, keep-alive connection).
std::string request_wire(const ReplayMsg& m, hcm::net::Endpoint dest);
std::string response_wire(const ReplayMsg& m);

class StageReplay {
 public:
  StageReplay();
  ~StageReplay();
  StageReplay(const StageReplay&) = delete;
  StageReplay& operator=(const StageReplay&) = delete;

  // Runs m through all twelve stages (plus the value codec on the same
  // arguments) under spans tagged with `call`. False, with `err` set,
  // when a decoded message differs from what was encoded.
  bool replay(const ReplayMsg& m, std::uint64_t call, std::string* err);

  // Per-layer metrics from the spans of every replayed call, with
  // core.stage_sum_ratio taken against the end-to-end call_us_p50.
  void report(Outcome& out, double call_us_p50) const;

 private:
  bool one_way(bool request, const ReplayMsg& m, std::uint64_t call,
               std::string* err);

  hcm::sim::Scheduler sched_;
  std::unique_ptr<hcm::net::Network> net_;
  hcm::net::StreamPtr a_, b_;
  hcm::BlockStream inbox_;
  bool delivered_ = false;
  std::uint64_t calls_ = 0;
  Heap encode_heap_, decode_heap_, parse_heap_;
};

// A relay node spliced between a VSG caller and callee: it accepts the
// caller's connection, opens its own to the callee, forwards bytes
// both ways and keeps a copy of each direction.
class WireTap {
 public:
  WireTap(hcm::net::Network& net, hcm::net::NodeId tap_node,
          std::uint16_t port, hcm::net::Endpoint upstream);
  std::string take_request() { return std::exchange(req_, {}); }
  std::string take_response() { return std::exchange(resp_, {}); }

 private:
  struct Link {
    hcm::net::StreamPtr in, out;
    std::vector<hcm::BlockStream> pending;
  };
  hcm::net::Network& net_;
  hcm::net::NodeId node_;
  hcm::net::Endpoint upstream_;
  std::vector<std::shared_ptr<Link>> links_;
  std::string req_, resp_;
};

}  // namespace hcmbench
