#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace mcm::service {
namespace {

const JsonValue& NullValue() {
  static const JsonValue null_value;
  return null_value;
}

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; encode as null.
    out += "null";
    return;
  }
  // Integers (the common case: ids, counts, chips) print exactly; other
  // values round-trip through max-precision shortest-ish formatting.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void DumpValue(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull: out += "null"; return;
    case JsonValue::Type::kBool: out += v.AsBool() ? "true" : "false"; return;
    case JsonValue::Type::kNumber: AppendNumber(out, v.AsNumber()); return;
    case JsonValue::Type::kString: AppendEscaped(out, v.AsString()); return;
    case JsonValue::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.array()) {
        if (!first) out.push_back(',');
        first = false;
        DumpValue(item, out);
      }
      out.push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.object()) {
        if (!first) out.push_back(',');
        first = false;
        AppendEscaped(out, key);
        out.push_back(':');
        DumpValue(value, out);
      }
      out.push_back('}');
      return;
    }
  }
}

// Recursive-descent parser over `text`; fails with a position-tagged error.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // The protocol only ever escapes control bytes; encode the code
          // point as UTF-8 for completeness.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    try {
      std::size_t used = 0;
      const std::string token = text_.substr(start, pos_ - start);
      const double v = std::stod(token, &used);
      if (used != token.size()) return Fail("bad number");
      *out = JsonValue::Number(v);
      return true;
    } catch (const std::exception&) {
      return Fail("bad number");
    }
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') {
      if (!Literal("null", 4)) return false;
      *out = JsonValue();
      return true;
    }
    if (c == 't') {
      if (!Literal("true", 4)) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false", 5)) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      *out = JsonValue::String(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos_;
      *out = JsonValue::Array();
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->array().push_back(std::move(item));
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos_;
      *out = JsonValue::Object();
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->object()[std::move(key)] = std::move(value);
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

// Reads the number under `key`, when present, into `*out`.  Anything but
// an integer in [lo, hi] is an error, so the caller's cast is exact and
// defined.
bool ReadInteger(const JsonValue& object, const char* key, double lo,
                 double hi, double* out, std::string* error) {
  if (!object.Has(key)) return true;
  const double value =
      object.Get(key).AsNumber(std::numeric_limits<double>::quiet_NaN());
  if (!std::isfinite(value) || value != std::floor(value) || value < lo ||
      value > hi) {
    if (error != nullptr) {
      *error = std::string(key) + " must be an integer in [" +
               std::to_string(static_cast<long long>(lo)) + ", " +
               std::to_string(static_cast<long long>(hi)) + "]";
    }
    return false;
  }
  *out = value;
  return true;
}

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

// ---- JsonValue -------------------------------------------------------------

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::AsNumber(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

const std::string& JsonValue::AsString() const { return string_; }

const JsonValue& JsonValue::Get(const std::string& key) const {
  if (type_ != Type::kObject) return NullValue();
  const auto it = object_.find(key);
  return it == object_.end() ? NullValue() : it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return type_ == Type::kObject && object_.find(key) != object_.end();
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpValue(*this, out);
  return out;
}

bool JsonValue::Parse(const std::string& text, JsonValue* out,
                      std::string* error) {
  Parser parser(text, error);
  return parser.ParseDocument(out);
}

// ---- Requests --------------------------------------------------------------

const char* RequestModeName(RequestMode mode) {
  switch (mode) {
    case RequestMode::kZeroShot: return "zeroshot";
    case RequestMode::kFinetune: return "finetune";
    case RequestMode::kSearch: return "search";
    case RequestMode::kSolver: return "solver";
  }
  return "solver";
}

bool ParseRequestMode(const std::string& name, RequestMode* mode) {
  if (name == "zeroshot") *mode = RequestMode::kZeroShot;
  else if (name == "finetune") *mode = RequestMode::kFinetune;
  else if (name == "search") *mode = RequestMode::kSearch;
  else if (name == "solver") *mode = RequestMode::kSolver;
  else return false;
  return true;
}

// MCM_CONTRACT(deterministic): wire encodings must be byte-identical for
// identical inputs (clients hash them for dedup/caching).
std::string EncodeRequest(const PartitionRequest& request) {
  JsonValue v = JsonValue::Object();
  auto& o = v.object();
  if (!request.id.empty()) o["id"] = JsonValue::String(request.id);
  o["mode"] = JsonValue::String(RequestModeName(request.mode));
  o["method"] = JsonValue::String(request.method);
  o["model"] = JsonValue::String(request.model);
  o["objective"] = JsonValue::String(request.objective);
  o["graph"] = JsonValue::String(request.graph_text);
  o["chips"] = JsonValue::Number(request.chips);
  o["budget"] = JsonValue::Number(request.budget);
  o["seed"] = JsonValue::Number(static_cast<double>(request.seed));
  if (request.deadline_ms > 0) {
    o["deadline_ms"] = JsonValue::Number(static_cast<double>(request.deadline_ms));
  }
  return v.Dump();
}

bool ParseRequest(const std::string& line, PartitionRequest* request,
                  std::string* error) {
  JsonValue v;
  if (!JsonValue::Parse(line, &v, error)) return false;
  if (v.type() != JsonValue::Type::kObject) {
    if (error != nullptr) *error = "request is not a JSON object";
    return false;
  }
  PartitionRequest r;
  r.id = v.Get("id").AsString();
  if (v.Has("mode") && !ParseRequestMode(v.Get("mode").AsString(), &r.mode)) {
    if (error != nullptr) *error = "unknown mode: " + v.Get("mode").AsString();
    return false;
  }
  if (v.Has("method")) r.method = v.Get("method").AsString();
  if (v.Has("model")) r.model = v.Get("model").AsString();
  if (v.Has("objective")) r.objective = v.Get("objective").AsString();
  r.graph_text = v.Get("graph").AsString();
  if (r.graph_text.empty()) {
    if (error != nullptr) *error = "missing graph";
    return false;
  }
  // Seeds above 2^53 - 1 are not exact doubles, so they would be rounded.
  // The deadline bound keeps the handler's deadline-to-propagations
  // product far from int64 overflow.
  constexpr double kMaxInt = std::numeric_limits<int>::max();
  constexpr double kMaxSeed = 9007199254740991.0;
  constexpr double kMaxDeadlineMs = std::numeric_limits<std::int32_t>::max();
  double chips = r.chips;
  double budget = r.budget;
  double seed = static_cast<double>(r.seed);
  double deadline_ms = 0.0;
  if (!ReadInteger(v, "chips", -kMaxInt, kMaxInt, &chips, error) ||
      !ReadInteger(v, "budget", -kMaxInt, kMaxInt, &budget, error) ||
      !ReadInteger(v, "seed", 0.0, kMaxSeed, &seed, error) ||
      !ReadInteger(v, "deadline_ms", 0.0, kMaxDeadlineMs, &deadline_ms,
                   error)) {
    return false;
  }
  r.chips = static_cast<int>(chips);
  r.budget = static_cast<int>(budget);
  r.seed = static_cast<std::uint64_t>(seed);
  r.deadline_ms = static_cast<std::int64_t>(deadline_ms);
  *request = std::move(r);
  return true;
}

// ---- Responses -------------------------------------------------------------

// MCM_CONTRACT(deterministic): response bytes for a given outcome are part
// of the replay contract (integration tests diff whole transcripts).
std::string EncodeResponse(const PartitionResponse& response) {
  JsonValue v = JsonValue::Object();
  auto& o = v.object();
  if (!response.id.empty()) o["id"] = JsonValue::String(response.id);
  o["ok"] = JsonValue::Bool(response.ok);
  if (!response.ok) {
    o["error"] = JsonValue::String(response.error);
    if (response.retry_after_ms > 0) {
      o["retry_after_ms"] =
          JsonValue::Number(static_cast<double>(response.retry_after_ms));
    }
    return v.Dump();
  }
  JsonValue assignment = JsonValue::Array();
  assignment.array().reserve(response.assignment.size());
  for (const int chip : response.assignment) {
    assignment.array().push_back(JsonValue::Number(chip));
  }
  o["assignment"] = std::move(assignment);
  o["num_chips"] = JsonValue::Number(response.num_chips);
  o["improvement"] = JsonValue::Number(response.improvement);
  o["runtime_s"] = JsonValue::Number(response.runtime_s);
  o["latency_s"] = JsonValue::Number(response.latency_s);
  o["throughput"] = JsonValue::Number(response.throughput);
  o["baseline_runtime_s"] = JsonValue::Number(response.baseline_runtime_s);
  o["cached"] = JsonValue::Bool(response.cached);
  o["batch_size"] = JsonValue::Number(response.batch_size);
  return v.Dump();
}

bool ParseResponse(const std::string& line, PartitionResponse* response,
                   std::string* error) {
  JsonValue v;
  if (!JsonValue::Parse(line, &v, error)) return false;
  if (v.type() != JsonValue::Type::kObject) {
    if (error != nullptr) *error = "response is not a JSON object";
    return false;
  }
  PartitionResponse r;
  r.id = v.Get("id").AsString();
  r.ok = v.Get("ok").AsBool(false);
  r.error = v.Get("error").AsString();
  r.retry_after_ms =
      static_cast<std::int64_t>(v.Get("retry_after_ms").AsNumber(0.0));
  const JsonValue& assignment = v.Get("assignment");
  r.assignment.reserve(assignment.array().size());
  for (const JsonValue& chip : assignment.array()) {
    r.assignment.push_back(static_cast<int>(chip.AsNumber(-1.0)));
  }
  r.num_chips = static_cast<int>(v.Get("num_chips").AsNumber(0.0));
  r.improvement = v.Get("improvement").AsNumber(0.0);
  r.runtime_s = v.Get("runtime_s").AsNumber(0.0);
  r.latency_s = v.Get("latency_s").AsNumber(0.0);
  r.throughput = v.Get("throughput").AsNumber(0.0);
  r.baseline_runtime_s = v.Get("baseline_runtime_s").AsNumber(0.0);
  r.cached = v.Get("cached").AsBool(false);
  r.batch_size = static_cast<int>(v.Get("batch_size").AsNumber(1.0));
  *response = std::move(r);
  return true;
}

PartitionResponse MakeErrorResponse(const std::string& id,
                                    const std::string& error,
                                    std::int64_t retry_after_ms) {
  PartitionResponse response;
  response.id = id;
  response.ok = false;
  response.error = error;
  response.retry_after_ms = retry_after_ms;
  return response;
}

// ---- Fingerprinting --------------------------------------------------------

std::uint64_t RequestFingerprint(const PartitionRequest& request) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(request.graph_text, h);
  h = Fnv1a(RequestCacheKey(request), h);
  return h;
}

std::string RequestCacheKey(const PartitionRequest& request) {
  std::uint64_t graph_hash = 0xcbf29ce484222325ULL;
  graph_hash = Fnv1a(request.graph_text, graph_hash);
  std::ostringstream key;
  key << std::hex << graph_hash << std::dec << '|'
      << RequestModeName(request.mode) << '|' << request.method << '|'
      << request.model << '|' << request.objective << '|' << request.chips
      << '|' << request.budget << '|' << request.seed << '|'
      << request.deadline_ms;
  return key.str();
}

}  // namespace mcm::service
