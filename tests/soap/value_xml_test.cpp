#include "soap/value_xml.hpp"

#include <gtest/gtest.h>

#include "common/value_codec.hpp"

namespace hcm::soap {
namespace {

Result<Value> round_trip(const Value& v) {
  xml::Element parent("params");
  value_to_xml("p", v, parent);
  auto serialized = parent.to_string();
  auto parsed = xml::parse(serialized);
  if (!parsed.is_ok()) return parsed.status();
  const auto* p = parsed.value()->child("p");
  if (p == nullptr) return internal_error("lost element");
  return value_from_xml(*p);
}

class SoapValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(SoapValueRoundTrip, SurvivesXmlEncoding) {
  auto r = round_trip(GetParam());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllValueShapes, SoapValueRoundTrip,
    ::testing::Values(
        Value(), Value(true), Value(false), Value(0), Value(-123456789),
        Value(INT64_MAX), Value(3.5), Value(-0.25), Value(1e100),
        Value(""), Value("plain"), Value("<xml> & \"entities\""),
        Value(Bytes{}), Value(Bytes{0, 1, 255}),
        Value(ValueList{Value(1), Value("two"), Value(true)}),
        Value(ValueList{}),
        Value(ValueMap{{"a", Value(1)}, {"b", Value("x")}}),
        Value(ValueMap{
            {"outer", Value(ValueMap{{"inner", Value(ValueList{Value(9)})}})}}),
        // Keys that are not valid XML names (metric scopes like
        // "http.server#2") ride in an <entry key="..."> form.
        Value(ValueMap{{"http.server#2.requests", Value(7)},
                       {"9starts-with-digit", Value("v")},
                       {"spaced key", Value(true)}})));

TEST(SoapValueTest, XsiTypeStrings) {
  EXPECT_STREQ(xsi_type_for(ValueType::kInt), "xsd:long");
  EXPECT_STREQ(xsi_type_for(ValueType::kString), "xsd:string");
  EXPECT_STREQ(xsi_type_for(ValueType::kList), "SOAP-ENC:Array");
  EXPECT_EQ(value_type_for_xsi("xsd:int"), ValueType::kInt);
  EXPECT_EQ(value_type_for_xsi("xsd:boolean"), ValueType::kBool);
  EXPECT_EQ(value_type_for_xsi("unknown:thing"), ValueType::kNull);
}

TEST(SoapValueTest, AcceptsForeignIntTypes) {
  // A peer using xsd:int (not our canonical xsd:long) must decode.
  auto parsed = xml::parse("<p xsi:type=\"xsd:int\">42</p>");
  ASSERT_TRUE(parsed.is_ok());
  auto v = value_from_xml(*parsed.value());
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), Value(42));
}

TEST(SoapValueTest, UntypedElementWithChildrenBecomesMap) {
  auto parsed = xml::parse("<p><x xsi:type=\"xsd:long\">1</x></p>");
  ASSERT_TRUE(parsed.is_ok());
  auto v = value_from_xml(*parsed.value());
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().is_map());
  EXPECT_EQ(v.value().at("x"), Value(1));
}

TEST(SoapValueTest, UntypedTextBecomesString) {
  auto parsed = xml::parse("<p>words</p>");
  ASSERT_TRUE(parsed.is_ok());
  auto v = value_from_xml(*parsed.value());
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), Value("words"));
}

TEST(SoapValueTest, NilDecodesToNull) {
  auto parsed = xml::parse("<p xsi:nil=\"true\" xsi:type=\"xsd:string\"/>");
  ASSERT_TRUE(parsed.is_ok());
  auto v = value_from_xml(*parsed.value());
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().is_null());
}

TEST(SoapValueTest, MalformedScalarsRejected) {
  for (const char* bad :
       {"<p xsi:type=\"xsd:long\">4x</p>", "<p xsi:type=\"xsd:long\"></p>",
        "<p xsi:type=\"xsd:boolean\">maybe</p>",
        "<p xsi:type=\"xsd:double\">1.2.3</p>",
        "<p xsi:type=\"xsd:base64Binary\">!!</p>"}) {
    auto parsed = xml::parse(bad);
    ASSERT_TRUE(parsed.is_ok()) << bad;
    EXPECT_FALSE(value_from_xml(*parsed.value()).is_ok()) << bad;
  }
}

// `levels` untyped elements nested inside a top-level <p>, innermost
// carrying text: decodes to maps `levels` deep around a string.
std::string nested_document(int levels) {
  std::string doc = "<p>";
  for (int i = 0; i < levels; ++i) doc += "<a>";
  doc += "x";
  for (int i = 0; i < levels; ++i) doc += "</a>";
  return doc + "</p>";
}

TEST(SoapValueTest, NestingUpToTheCodecLimitDecodes) {
  // <p> is depth 0; the innermost <a> sits at kMaxValueDepth.
  const std::string doc = nested_document(kMaxValueDepth);
  auto parsed = xml::parse(doc);
  ASSERT_TRUE(parsed.is_ok());
  auto tree = value_from_xml(*parsed.value());
  ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
  xml::PullParser p(doc);
  ASSERT_TRUE(p.next().is_ok());
  auto pulled = value_from_pull(p);
  ASSERT_TRUE(pulled.is_ok()) << pulled.status().to_string();
  EXPECT_EQ(pulled.value(), tree.value());
}

TEST(SoapValueTest, NestingPastTheCodecLimitRejected) {
  for (int levels : {kMaxValueDepth + 1, 100'000}) {
    const std::string doc = nested_document(levels);
    auto parsed = xml::parse(doc);
    ASSERT_TRUE(parsed.is_ok()) << levels;
    auto tree = value_from_xml(*parsed.value());
    ASSERT_FALSE(tree.is_ok()) << levels;
    EXPECT_EQ(tree.status().code(), StatusCode::kProtocolError) << levels;
    xml::PullParser p(doc);
    ASSERT_TRUE(p.next().is_ok());
    auto pulled = value_from_pull(p);
    ASSERT_FALSE(pulled.is_ok()) << levels;
    EXPECT_EQ(pulled.status().code(), StatusCode::kProtocolError) << levels;
  }
}

}  // namespace
}  // namespace hcm::soap
