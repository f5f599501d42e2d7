#include "faults/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/json_parse.h"
#include "sttram/device_model.h"

namespace sudoku::faults {

namespace {

// Local FNV-1a (the exp layer has its own for checkpoint fingerprints, but
// faults sits below exp and must not link it).
std::uint64_t fnv1a64(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64_u64(std::uint64_t v, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "faults::FaultScenario: %s\n", what);
  std::abort();
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_double(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %.17g", key, v);
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

// ---------------------------------------------------------------- stuck sets

void assert_cells(SttramArray& array, std::span<const StuckCell> cells) {
  for (const StuckCell& s : cells)
    if (array.test(s.unit, s.bit) != s.value) array.flip(s.unit, s.bit);
}

ActiveStuck::ActiveStuck(const std::vector<StuckCell>& cells) : input_(cells) { settle(); }

void ActiveStuck::settle() {
  // Last writer wins per (unit, bit): sort the input indices by key, the
  // later index first within a key, and keep each key's first. An index
  // sort, not a stable sort of the cells, so nothing is allocated.
  const auto key = [](const StuckCell& c) { return std::pair(c.unit, c.bit); };
  order_.resize(input_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto ka = key(input_[a]);
    const auto kb = key(input_[b]);
    return ka != kb ? ka < kb : a > b;
  });
  cells_.clear();
  units_.clear();
  for (const std::uint32_t i : order_) {
    const StuckCell& c = input_[i];
    if (!cells_.empty() && key(cells_.back()) == key(c)) continue;
    cells_.push_back(c);
    if (units_.empty() || units_.back() != c.unit) units_.push_back(c.unit);
  }
}

bool ActiveStuck::equal_outside_stuck(std::uint64_t unit, const BitVec& stored,
                                      const BitVec& golden) const {
  // Word by word, with this unit's stuck bits (sorted by bit) masked out.
  auto it = std::lower_bound(cells_.begin(), cells_.end(), unit,
                             [](const StuckCell& a, std::uint64_t u) { return a.unit < u; });
  const auto s = stored.words();
  const auto g = golden.words();
  for (std::size_t w = 0; w < s.size(); ++w) {
    std::uint64_t diff = s[w] ^ g[w];
    for (; it != cells_.end() && it->unit == unit && it->bit / 64 == w; ++it)
      diff &= ~(std::uint64_t{1} << (it->bit % 64));
    if (diff != 0) return false;
  }
  return true;
}

// ----------------------------------------------------------------- spec JSON

const char* to_string(SourceKind kind) {
  switch (kind) {
    case SourceKind::kIid: return "iid";
    case SourceKind::kStuckAt: return "stuck_at";
    case SourceKind::kIntermittent: return "intermittent";
    case SourceKind::kCluster: return "cluster";
    case SourceKind::kThermal: return "thermal";
    case SourceKind::kWeibull: return "weibull";
  }
  return "?";
}

const char* to_string(ClusterShape shape) {
  switch (shape) {
    case ClusterShape::kRow: return "row";
    case ClusterShape::kCol: return "col";
    case ClusterShape::kRect: return "rect";
  }
  return "?";
}

std::string ScenarioSpec::to_json() const {
  std::string out = "{\"name\": ";
  append_escaped(out, name);
  out += ", \"sources\": [";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const SourceSpec& s = sources[i];
    if (i) out += ", ";
    out += "{\"kind\": ";
    append_escaped(out, to_string(s.kind));
    switch (s.kind) {
      case SourceKind::kIid:
        out += ", ";
        append_double(out, "ber", s.ber);
        break;
      case SourceKind::kStuckAt:
        out += ", ";
        append_u64(out, "cells", s.cells);
        out += ", ";
        out += "\"value\": ";
        append_escaped(out, s.stuck_value < 0 ? "random" : (s.stuck_value ? "1" : "0"));
        break;
      case SourceKind::kIntermittent:
        out += ", ";
        append_u64(out, "cells", s.cells);
        out += ", ";
        append_u64(out, "period", s.period);
        out += ", ";
        append_u64(out, "active", s.active);
        out += ", \"value\": ";
        append_escaped(out, s.stuck_value < 0 ? "random" : (s.stuck_value ? "1" : "0"));
        break;
      case SourceKind::kCluster:
        out += ", ";
        append_double(out, "events_per_interval", s.events_per_interval);
        out += ", \"shape\": ";
        append_escaped(out, to_string(s.shape));
        out += ", ";
        append_u64(out, "span_units", s.span_units);
        out += ", ";
        append_u64(out, "span_bits", s.span_bits);
        break;
      case SourceKind::kThermal:
        out += ", ";
        append_double(out, "delta_start", s.delta_start);
        out += ", ";
        append_double(out, "delta_end", s.delta_end);
        out += ", ";
        append_u64(out, "ramp_intervals", s.ramp_intervals);
        out += ", ";
        append_double(out, "sigma_frac", s.sigma_frac);
        out += ", ";
        append_double(out, "interval_s", s.interval_s);
        break;
      case SourceKind::kWeibull:
        out += ", ";
        append_u64(out, "cells", s.cells);
        out += ", ";
        append_double(out, "weibull_k", s.weibull_k);
        out += ", ";
        append_double(out, "weibull_scale", s.weibull_scale);
        out += ", \"value\": ";
        append_escaped(out, s.stuck_value < 0 ? "random" : (s.stuck_value ? "1" : "0"));
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

bool parse_kind(const std::string& s, SourceKind& out) {
  for (const SourceKind k :
       {SourceKind::kIid, SourceKind::kStuckAt, SourceKind::kIntermittent,
        SourceKind::kCluster, SourceKind::kThermal, SourceKind::kWeibull}) {
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_shape(const std::string& s, ClusterShape& out) {
  for (const ClusterShape c :
       {ClusterShape::kRow, ClusterShape::kCol, ClusterShape::kRect}) {
    if (s == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

// Optional-field readers: absent keys keep the SourceSpec default; present
// keys must have the right shape.
bool read_double(const JsonValue& obj, const char* key, double& out,
                 std::string* error) {
  const JsonValue* v = obj.find(key);
  if (!v) return true;
  const auto d = v->as_double();
  if (!d) {
    if (error) *error = std::string(key) + ": expected a number";
    return false;
  }
  out = *d;
  return true;
}

template <typename Int>
bool read_uint(const JsonValue& obj, const char* key, Int& out, std::string* error) {
  const JsonValue* v = obj.find(key);
  if (!v) return true;
  const auto u = v->as_u64();
  if (!u) {
    if (error) *error = std::string(key) + ": expected a non-negative integer";
    return false;
  }
  out = static_cast<Int>(*u);
  return true;
}

bool read_value_field(const JsonValue& obj, int& out, std::string* error) {
  const JsonValue* v = obj.find("value");
  if (!v) return true;
  if (v->is_string()) {
    if (v->scalar == "random") out = -1;
    else if (v->scalar == "0") out = 0;
    else if (v->scalar == "1") out = 1;
    else {
      if (error) *error = "value: expected \"random\", \"0\" or \"1\"";
      return false;
    }
    return true;
  }
  if (error) *error = "value: expected a string";
  return false;
}

}  // namespace

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view json,
                                                std::string* error) {
  const auto doc = json_parse(json, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    if (error) *error = "scenario: expected a JSON object";
    return std::nullopt;
  }
  ScenarioSpec spec;
  if (const JsonValue* name = doc->find("name")) {
    if (!name->is_string()) {
      if (error) *error = "name: expected a string";
      return std::nullopt;
    }
    spec.name = name->scalar;
  }
  const JsonValue* sources = doc->find("sources");
  if (!sources || !sources->is_array()) {
    if (error) *error = "sources: expected an array";
    return std::nullopt;
  }
  for (const JsonValue& item : sources->items) {
    if (!item.is_object()) {
      if (error) *error = "sources[]: expected an object";
      return std::nullopt;
    }
    SourceSpec s;
    const JsonValue* kind = item.find("kind");
    if (!kind || !kind->is_string() || !parse_kind(kind->scalar, s.kind)) {
      if (error) *error = "sources[].kind: expected one of iid/stuck_at/intermittent/cluster/thermal/weibull";
      return std::nullopt;
    }
    if (const JsonValue* shape = item.find("shape")) {
      if (!shape->is_string() || !parse_shape(shape->scalar, s.shape)) {
        if (error) *error = "sources[].shape: expected row/col/rect";
        return std::nullopt;
      }
    }
    if (!read_double(item, "ber", s.ber, error) ||
        !read_uint(item, "cells", s.cells, error) ||
        !read_uint(item, "period", s.period, error) ||
        !read_uint(item, "active", s.active, error) ||
        !read_double(item, "events_per_interval", s.events_per_interval, error) ||
        !read_uint(item, "span_units", s.span_units, error) ||
        !read_uint(item, "span_bits", s.span_bits, error) ||
        !read_double(item, "delta_start", s.delta_start, error) ||
        !read_double(item, "delta_end", s.delta_end, error) ||
        !read_uint(item, "ramp_intervals", s.ramp_intervals, error) ||
        !read_double(item, "sigma_frac", s.sigma_frac, error) ||
        !read_double(item, "interval_s", s.interval_s, error) ||
        !read_double(item, "weibull_k", s.weibull_k, error) ||
        !read_double(item, "weibull_scale", s.weibull_scale, error) ||
        !read_value_field(item, s.stuck_value, error))
      return std::nullopt;
    spec.sources.push_back(s);
  }
  return spec;
}

// ------------------------------------------------------------------ builtins

namespace {

struct Builtin {
  const char* name;
  const char* json;
};

// Presets shared by bench_scenario_matrix, the tests, and docs/faults.md.
// Rates are tuned for the bench's 4096-line / ~550-bit-unit arrays: high
// enough that a few hundred intervals see real multi-fault events, low
// enough that SuDoku-X still separates from the stronger inner codes.
constexpr Builtin kBuiltins[] = {
    {"iid",
     R"({"name": "iid", "sources": [{"kind": "iid", "ber": 1e-4}]})"},
    {"stuck",
     R"({"name": "stuck", "sources": [
          {"kind": "stuck_at", "cells": 24, "value": "random"},
          {"kind": "iid", "ber": 2e-5}]})"},
    {"intermittent",
     R"({"name": "intermittent", "sources": [
          {"kind": "intermittent", "cells": 16, "period": 6, "active": 2, "value": "random"},
          {"kind": "iid", "ber": 2e-5}]})"},
    {"clustered",
     R"({"name": "clustered", "sources": [
          {"kind": "cluster", "events_per_interval": 1.0, "shape": "row", "span_units": 1, "span_bits": 8},
          {"kind": "cluster", "events_per_interval": 0.25, "shape": "col", "span_units": 4, "span_bits": 1},
          {"kind": "iid", "ber": 2e-5}]})"},
    {"thermal_ramp",
     R"({"name": "thermal_ramp", "sources": [
          {"kind": "thermal", "delta_start": 35, "delta_end": 31, "ramp_intervals": 200,
           "sigma_frac": 0.1, "interval_s": 0.02}]})"},
    {"weibull",
     R"({"name": "weibull", "sources": [
          {"kind": "weibull", "cells": 48, "weibull_k": 2.0, "weibull_scale": 250, "value": "random"},
          {"kind": "iid", "ber": 2e-5}]})"},
    {"mixed",
     R"({"name": "mixed", "sources": [
          {"kind": "stuck_at", "cells": 12, "value": "random"},
          {"kind": "intermittent", "cells": 8, "period": 8, "active": 3, "value": "random"},
          {"kind": "cluster", "events_per_interval": 0.5, "shape": "row", "span_units": 1, "span_bits": 8},
          {"kind": "iid", "ber": 5e-5}]})"},
};

}  // namespace

ScenarioSpec ScenarioSpec::builtin(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) {
      std::string error;
      auto spec = parse(b.json, &error);
      if (!spec) {
        std::fprintf(stderr, "faults: builtin scenario '%s' failed to parse: %s\n",
                     b.name, error.c_str());
        std::abort();
      }
      return *spec;
    }
  }
  std::fprintf(stderr, "faults: unknown builtin scenario '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

std::vector<std::string> ScenarioSpec::builtin_names() {
  std::vector<std::string> names;
  for (const Builtin& b : kBuiltins) names.emplace_back(b.name);
  return names;
}

// ------------------------------------------------------------ FaultScenario

FaultScenario::FaultScenario(ScenarioSpec spec, const Geometry& geometry,
                             std::uint64_t seed)
    : spec_(std::move(spec)), geom_(geometry), seed_(seed) {
  if (geom_.num_units == 0 || geom_.bits_per_unit == 0)
    die("geometry must be non-empty");

  fingerprint_ = fnv1a64(spec_.to_json());
  fingerprint_ = fnv1a64_u64(geom_.num_units, fingerprint_);
  fingerprint_ = fnv1a64_u64(geom_.bits_per_unit, fingerprint_);
  fingerprint_ = fnv1a64_u64(seed_, fingerprint_);

  sources_.reserve(spec_.sources.size());
  for (std::size_t i = 0; i < spec_.sources.size(); ++i) {
    const SourceSpec& s = spec_.sources[i];
    Source src;
    src.spec = s;
    src.seed = Rng::derive_stream_seed(seed_, i);

    switch (s.kind) {
      case SourceKind::kIid:
        if (s.ber < 0.0 || s.ber >= 1.0) die("iid: ber must be in [0, 1)");
        break;
      case SourceKind::kCluster:
        if (s.events_per_interval < 0.0) die("cluster: negative arrival rate");
        if (s.span_units == 0 || s.span_bits == 0) die("cluster: zero-sized footprint");
        break;
      case SourceKind::kThermal:
        if (s.interval_s <= 0.0) die("thermal: interval_s must be positive");
        if (s.sigma_frac < 0.0) die("thermal: negative sigma_frac");
        break;
      case SourceKind::kIntermittent:
        if (s.period == 0) die("intermittent: period must be positive");
        if (s.active > s.period) die("intermittent: active phase longer than period");
        [[fallthrough]];
      case SourceKind::kStuckAt:
      case SourceKind::kWeibull: {
        if (s.kind == SourceKind::kWeibull &&
            (s.weibull_k <= 0.0 || s.weibull_scale <= 0.0))
          die("weibull: shape and scale must be positive");
        if (s.cells > geom_.total_bits())
          die("stuck-type source asks for more cells than the array has bits");
        // Placement is a format-time decision: drawn once from the source's
        // format sub-stream, distinct within the source (rejection over flat
        // positions, same scheme FaultInjector::sample_exact uses).
        Rng rng(Rng::derive_stream_seed(src.seed, kFormatStream));
        std::unordered_set<std::uint64_t> seen;
        src.cells.reserve(s.cells);
        while (src.cells.size() < s.cells) {
          const std::uint64_t pos = rng.next_below(geom_.total_bits());
          if (!seen.insert(pos).second) continue;
          PlacedCell cell;
          cell.unit = pos / geom_.bits_per_unit;
          cell.bit = static_cast<std::uint32_t>(pos % geom_.bits_per_unit);
          cell.value = s.stuck_value < 0 ? rng.next_bool(0.5) : (s.stuck_value != 0);
          if (s.kind == SourceKind::kIntermittent)
            cell.phase = static_cast<std::uint32_t>(rng.next_below(s.period));
          if (s.kind == SourceKind::kWeibull) {
            double u = rng.next_double();
            while (u >= 1.0) u = rng.next_double();
            cell.birth = s.weibull_scale *
                         std::pow(-std::log1p(-u), 1.0 / s.weibull_k);
          }
          src.cells.push_back(cell);
        }
        has_stuck_ = true;
        break;
      }
    }
    sources_.push_back(std::move(src));
  }
}

double FaultScenario::thermal_ber(const SourceSpec& s, std::uint64_t t) const {
  double frac = 1.0;
  if (s.ramp_intervals > 0 && t < s.ramp_intervals)
    frac = static_cast<double>(t) / static_cast<double>(s.ramp_intervals);
  ThermalParams p;
  p.delta_mean = s.delta_start + (s.delta_end - s.delta_start) * frac;
  p.sigma_frac = s.sigma_frac;
  return effective_ber(p, s.interval_s);
}

void FaultScenario::transient_positions(std::uint64_t t, std::vector<std::uint64_t>& out,
                                        ScenarioTick* tick) const {
  out.clear();
  std::uint64_t cluster_events = 0;
  for (const Source& src : sources_) {
    const SourceSpec& s = src.spec;
    switch (s.kind) {
      case SourceKind::kIid:
      case SourceKind::kThermal: {
        const double ber = s.kind == SourceKind::kIid ? s.ber : thermal_ber(s, t);
        Rng rng(Rng::derive_stream_seed(src.seed, t));
        const FaultInjector inj(geom_.num_units, geom_.bits_per_unit, ber);
        inj.draw_positions(rng, rng.next_binomial(geom_.total_bits(), ber), out);
        break;
      }
      case SourceKind::kCluster: {
        Rng rng(Rng::derive_stream_seed(src.seed, t));
        const std::uint64_t events = rng.next_poisson(s.events_per_interval);
        cluster_events += events;
        for (std::uint64_t e = 0; e < events; ++e) {
          const std::uint64_t unit0 = rng.next_below(geom_.num_units);
          const std::uint64_t bit0 = rng.next_below(geom_.bits_per_unit);
          // Footprint grows toward higher indices and clips at the edges —
          // a row event near the last bit is genuinely shorter, like a
          // wordline defect reaching the array boundary.
          for (std::uint32_t du = 0; du < s.span_units; ++du) {
            const std::uint64_t unit = unit0 + du;
            if (unit >= geom_.num_units) break;
            for (std::uint32_t db = 0; db < s.span_bits; ++db) {
              const std::uint64_t bit = bit0 + db;
              if (bit >= geom_.bits_per_unit) break;
              out.push_back(unit * geom_.bits_per_unit + bit);
            }
          }
        }
        break;
      }
      case SourceKind::kStuckAt:
      case SourceKind::kIntermittent:
      case SourceKind::kWeibull:
        break;  // no transient component
    }
  }

  // XOR-merge across sources: a bit flipped by an even number of sources is
  // back in its original state, exactly as physical flips compose. Sorted,
  // equal positions are adjacent, so each copy cancels the one kept before.
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  for (const std::uint64_t pos : out) {
    if (kept > 0 && out[kept - 1] == pos) --kept;
    else out[kept++] = pos;
  }
  out.resize(kept);

  if (tick) {
    tick->transient_bits = kept;
    tick->cluster_events = cluster_events;
  }
}

FaultBatch FaultScenario::transient(std::uint64_t t, ScenarioTick* tick) const {
  std::vector<std::uint64_t> flips;
  transient_positions(t, flips, tick);
  FaultBatch batch;
  for (const std::uint64_t pos : flips)
    batch[pos / geom_.bits_per_unit].push_back(
        static_cast<std::uint32_t>(pos % geom_.bits_per_unit));
  return batch;
}

void FaultScenario::stuck(std::uint64_t t, ActiveStuck& out) const {
  std::vector<StuckCell>& cells = out.input_;
  cells.clear();
  for (const Source& src : sources_) {
    const SourceSpec& s = src.spec;
    switch (s.kind) {
      case SourceKind::kStuckAt:
        for (const PlacedCell& c : src.cells)
          cells.push_back({c.unit, c.bit, c.value});
        break;
      case SourceKind::kIntermittent:
        for (const PlacedCell& c : src.cells)
          if ((t + c.phase) % s.period < s.active)
            cells.push_back({c.unit, c.bit, c.value});
        break;
      case SourceKind::kWeibull:
        for (const PlacedCell& c : src.cells)
          if (c.birth <= static_cast<double>(t))
            cells.push_back({c.unit, c.bit, c.value});
        break;
      default:
        break;
    }
  }
  out.settle();
}

}  // namespace sudoku::faults
