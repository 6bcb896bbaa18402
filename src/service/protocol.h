// Wire protocol of the partition service: newline-delimited JSON.
//
// Each request is one JSON object on one line; each response is one JSON
// object on one line.  The graph travels inline as the text produced by
// Graph::Serialize (JSON-escaped), so a request is self-contained: the
// daemon never touches the filesystem on behalf of a client.
//
// Request fields (all optional except "graph"):
//   {"id": "r1", "mode": "zeroshot|finetune|search|solver",
//    "method": "random|sa",            // search mode only
//    "model": "analytical|hwsim", "objective": "throughput|latency",
//    "graph": "graph mlp\nnodes 4\n...", "chips": 8, "budget": 40,
//    "seed": 1, "deadline_ms": 0}
//
// Response fields:
//   {"id": "r1", "ok": true, "assignment": [0,0,1,...], "num_chips": 8,
//    "improvement": 1.31, "runtime_s": ..., "latency_s": ...,
//    "throughput": ..., "baseline_runtime_s": ..., "cached": false,
//    "batch_size": 1}
// or, on failure / admission rejection:
//   {"id": "r1", "ok": false, "error": "queue full", "retry_after_ms": 40}
//
// The JSON subset implemented here (JsonValue) covers exactly what the
// protocol needs -- objects, arrays, strings, finite numbers, booleans,
// null -- with deterministic (sorted-key) serialization so encoded messages
// are stable byte-for-byte across runs and platforms.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mcm::service {

// ---- Minimal JSON ----------------------------------------------------------

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool AsBool(bool fallback = false) const;
  double AsNumber(double fallback = 0.0) const;
  const std::string& AsString() const;  // Empty string when not a string.

  std::vector<JsonValue>& array() { return array_; }
  const std::vector<JsonValue>& array() const { return array_; }
  // std::map: deterministic iteration order for serialization.
  std::map<std::string, JsonValue>& object() { return object_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  // Member lookup; returns a shared null value when absent or not an object.
  const JsonValue& Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  // Compact single-line serialization with sorted object keys.
  std::string Dump() const;

  // Parses one JSON document.  Returns false (and fills *error) on malformed
  // input or trailing garbage.
  static bool Parse(const std::string& text, JsonValue* out,
                    std::string* error);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// ---- Requests --------------------------------------------------------------

// How a request wants its placement produced.  Mirrors the offline CLI:
// every mode has an exact `mcmpart partition` spelling (see handler.h), and
// a served placement is bit-identical to that offline run.
enum class RequestMode {
  kZeroShot,  // Pre-trained policy, greedy decode, no parameter updates.
  kFinetune,  // Policy warm-started then fine-tuned on this graph (PPO).
  kSearch,    // Classic search: "random" or "sa" per `method`.
  kSolver,    // Solver-repaired greedy heuristic only (compiler-pass mode).
};

const char* RequestModeName(RequestMode mode);
bool ParseRequestMode(const std::string& name, RequestMode* mode);

struct PartitionRequest {
  std::string id;  // Client-chosen correlation id, echoed in the response.
  RequestMode mode = RequestMode::kSolver;
  std::string method = "random";      // kSearch only: random | sa.
  std::string model = "analytical";   // analytical | hwsim.
  std::string objective = "throughput";  // throughput | latency.
  std::string graph_text;             // Graph::Serialize output.
  int chips = 8;
  int budget = 40;       // Evaluation budget for search/finetune/zeroshot.
  std::uint64_t seed = 1;
  // Soft per-request deadline.  0 = no deadline.  Caps the evaluation
  // retry/backoff budget (ResilientCostModel) and derives a deterministic
  // CP-solver propagation budget; see handler.cc.
  std::int64_t deadline_ms = 0;

  friend bool operator==(const PartitionRequest&,
                         const PartitionRequest&) = default;
};

// Serializes to one line (no trailing newline).
std::string EncodeRequest(const PartitionRequest& request);
// Parses one request line.  On failure returns false and fills *error.
bool ParseRequest(const std::string& line, PartitionRequest* request,
                  std::string* error);

// ---- Responses -------------------------------------------------------------

struct PartitionResponse {
  std::string id;
  bool ok = false;
  std::string error;            // Set when !ok.
  std::int64_t retry_after_ms = 0;  // Set on admission rejection.

  std::vector<int> assignment;  // Per-node chip ids.
  int num_chips = 0;
  double improvement = 0.0;     // Over the heuristic baseline (>= 0).
  double runtime_s = 0.0;
  double latency_s = 0.0;
  double throughput = 0.0;
  double baseline_runtime_s = 0.0;
  bool cached = false;          // Served from the placement cache.
  int batch_size = 1;           // Always 1; kept for wire compatibility.

  friend bool operator==(const PartitionResponse&,
                         const PartitionResponse&) = default;
};

std::string EncodeResponse(const PartitionResponse& response);
bool ParseResponse(const std::string& line, PartitionResponse* response,
                   std::string* error);

// Convenience constructors.
PartitionResponse MakeErrorResponse(const std::string& id,
                                    const std::string& error,
                                    std::int64_t retry_after_ms = 0);

// ---- Fingerprinting --------------------------------------------------------

// Content address of a request for the placement cache: a stable 64-bit
// FNV-1a hash of the graph text combined with every field that shapes the
// resulting placement (mode, method, model, objective, chips, budget, seed,
// deadline).  The correlation id is deliberately excluded.
std::uint64_t RequestFingerprint(const PartitionRequest& request);

// The full cache key: fingerprint plus the discriminating fields spelled
// out, so hash collisions cannot alias two different requests.
std::string RequestCacheKey(const PartitionRequest& request);

}  // namespace mcm::service
