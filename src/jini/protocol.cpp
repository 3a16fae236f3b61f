#include "jini/protocol.hpp"

#include "common/value_codec.hpp"

namespace hcm::jini {

Value ServiceItem::to_value() const {
  return Value(ValueMap{
      {"id", Value(service_id)},
      {"name", Value(name)},
      {"iface", interface_to_value(interface)},
      {"node", Value(static_cast<std::int64_t>(endpoint.node))},
      {"port", Value(static_cast<std::int64_t>(endpoint.port))},
      {"attrs", Value(attributes)},
  });
}

Result<ServiceItem> ServiceItem::from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("service item is not a map");
  ServiceItem item;
  if (!v.at("id").is_string()) return protocol_error("service item id");
  item.service_id = v.at("id").as_string();
  item.name = v.at("name").is_string() ? v.at("name").as_string() : "";
  auto iface = interface_from_value(v.at("iface"));
  if (!iface.is_ok()) return iface.status();
  item.interface = std::move(iface).take();
  auto node = v.at("node").to_int();
  auto port = v.at("port").to_int();
  if (!node.is_ok() || !port.is_ok()) {
    return protocol_error("service item endpoint");
  }
  item.endpoint = {static_cast<net::NodeId>(node.value()),
                   static_cast<std::uint16_t>(port.value())};
  if (v.at("attrs").is_map()) item.attributes = v.at("attrs").as_map();
  return item;
}

void write_call_frame(BlockStream& out, std::uint64_t call_id,
                      std::string_view service_id, std::string_view method,
                      const ValueList& args, bool one_way) {
  const std::size_t body =
      kEncodedHeaderSize + encoded_entry_size("args", encoded_size(args)) +
      encoded_entry_size("id", kEncodedIntSize) +
      encoded_entry_size("method", encoded_string_size(method)) +
      encoded_entry_size("oneWay", kEncodedBoolSize) +
      encoded_entry_size("svc", encoded_string_size(service_id));
  WireWriter w(out);
  put_frame_header(w, body);
  w.map_header(5);
  w.put_string("args");
  encode_list(args, w);
  w.put_string("id");
  w.int_value(static_cast<std::int64_t>(call_id));
  w.put_string("method");
  w.string_value(method);
  w.put_string("oneWay");
  w.bool_value(one_way);
  w.put_string("svc");
  w.string_value(service_id);
}

Status decode_call(std::string_view frame, CallView& call, ValueList& args) {
  call = CallView{};
  args.clear();
  WireReader r(frame);
  std::uint32_t n = 0;
  if (auto s = read_map_header(r, n); !s.is_ok()) return s;
  // An args list decodes in place and string names are viewed; other
  // fields decode into `field`. A repeated key keeps its first
  // occurrence, as a decoded ValueMap would.
  bool seen_args = false, seen_id = false, seen_svc = false,
       seen_method = false, seen_one_way = false;
  bool has_id = false;
  Value field;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string_view key;
    std::uint8_t tag = 0;
    if (!r.string(key) || !r.peek(tag)) {
      return protocol_error("truncated call");
    }
    const auto type = static_cast<ValueType>(tag);
    if (key == "args" && !seen_args && type == ValueType::kList) {
      seen_args = true;
      if (auto s = decode_list(r, args, 1); !s.is_ok()) return s;
      continue;
    }
    const bool svc = key == "svc" && !seen_svc;
    const bool method = key == "method" && !seen_method;
    if (svc || method) {
      std::string_view name;
      if (type != ValueType::kString) {
        return protocol_error("call missing service/method");
      }
      if (!r.u8(tag) || !r.string(name)) return protocol_error("truncated call");
      (svc ? call.service_id : call.method) = name;
      (svc ? seen_svc : seen_method) = true;
      continue;
    }
    if (auto s = decode_value(r, field, 1); !s.is_ok()) return s;
    if (key == "args") {
      seen_args = true;
    } else if (key == "id" && !seen_id) {
      seen_id = true;
      auto id = field.to_int();
      if (id.is_ok()) {
        has_id = true;
        call.call_id = static_cast<std::uint64_t>(id.value());
      }
    } else if (key == "oneWay" && !seen_one_way) {
      seen_one_way = true;
      call.one_way = field.is_bool() && field.as_bool();
    }
  }
  if (!r.at_end()) return protocol_error("trailing bytes after call");
  if (!has_id) return protocol_error("call missing id");
  if (!seen_svc || !seen_method) {
    return protocol_error("call missing service/method");
  }
  return Status::ok();
}

namespace {

std::string_view view_of(const Bytes& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

// The flat forms are the wire forms minus the 4-byte length prefix.
Bytes strip_frame_header(const BlockStream& framed) {
  Bytes out = framed.to_bytes();
  out.erase(out.begin(), out.begin() + 4);
  return out;
}

}  // namespace

Bytes encode_call(const CallMessage& m) {
  BlockStream framed;
  write_call_frame(framed, m.call_id, m.service_id, m.method, m.args,
                   m.one_way);
  return strip_frame_header(framed);
}

Result<CallMessage> decode_call(const Bytes& b) {
  CallView view;
  CallMessage out;
  if (auto s = decode_call(view_of(b), view, out.args); !s.is_ok()) return s;
  out.call_id = view.call_id;
  out.service_id = std::string(view.service_id);
  out.method = std::string(view.method);
  out.one_way = view.one_way;
  return out;
}

Bytes encode_reply(const ReplyMessage& m) {
  BlockStream framed;
  write_reply_frame(framed, m.call_id,
                    m.status.is_ok() ? Result<Value>(m.value)
                                     : Result<Value>(m.status));
  return strip_frame_header(framed);
}

Result<ReplyMessage> decode_reply(const Bytes& b) {
  ReplyMessage out;
  Result<Value> result = Value();
  if (auto s = decode_reply_frame(view_of(b), out.call_id, result);
      !s.is_ok()) {
    return s;
  }
  if (result.is_ok()) {
    out.value = std::move(result).take();
  } else {
    out.status = result.status();
  }
  return out;
}

Bytes frame(const Bytes& payload) {
  BufWriter w;
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_raw(payload);
  return w.take();
}

}  // namespace hcm::jini
