#include "fault/fault_plan.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace srcache::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kFailStop: return "fail";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kReplace: return "replace";
    case FaultKind::kSpare: return "spare";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kLatent: return "latent";
    case FaultKind::kLinkDegrade: return "degrade";
    case FaultKind::kPowerCut: return "powercut";
  }
  return "?";
}

namespace {

// One ';'-clause split into whitespace-separated "key=value" (or bare)
// tokens. All parse helpers report errors through `err` so the caller can
// attribute them to the clause.
struct Clause {
  std::string text;
  std::map<std::string, std::string> kv;
  std::string action;
};

bool parse_u64(const std::string& s, u64* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<u64>(v);
  return true;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// "2s" | "500ms" | "30us" | "1000ns" -> nanoseconds.
bool parse_duration(const std::string& s, sim::SimTime* out) {
  size_t unit = 0;
  while (unit < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[unit])) != 0 ||
          s[unit] == '.')) {
    ++unit;
  }
  if (unit == 0) return false;
  double num = 0.0;
  if (!parse_double(s.substr(0, unit), &num) || num < 0) return false;
  const std::string suffix = s.substr(unit);
  double mult = 0.0;
  if (suffix == "s") {
    mult = 1e9;
  } else if (suffix == "ms") {
    mult = 1e6;
  } else if (suffix == "us") {
    mult = 1e3;
  } else if (suffix == "ns") {
    mult = 1.0;
  } else {
    return false;
  }
  *out = static_cast<sim::SimTime>(num * mult);
  return true;
}

// "ssd3" -> 3, "primary" -> kPrimaryDev.
bool parse_dev(const std::string& s, int* out) {
  if (s == "primary") {
    *out = kPrimaryDev;
    return true;
  }
  if (s.rfind("ssd", 0) == 0) {
    u64 idx = 0;
    if (!parse_u64(s.substr(3), &idx) || idx > 255) return false;
    *out = static_cast<int>(idx);
    return true;
  }
  return false;
}

// "a..b" -> [a, b).
bool parse_range(const std::string& s, u64* begin, u64* end) {
  const size_t dots = s.find("..");
  if (dots == std::string::npos) return false;
  if (!parse_u64(s.substr(0, dots), begin) ||
      !parse_u64(s.substr(dots + 2), end)) {
    return false;
  }
  return *begin < *end;
}

Status clause_error(const Clause& c, const std::string& why) {
  return Status(ErrorCode::kInvalidArgument,
                "fault plan: " + why + " in clause '" + c.text + "'");
}

}  // namespace

std::string FaultEvent::describe() const {
  std::ostringstream os;
  if (trigger.kind == Trigger::Kind::kOps) {
    os << "at=ops:" << trigger.at_ops;
  } else {
    os << "at=" << static_cast<double>(trigger.at_time) / 1e9 << "s";
  }
  os << " " << to_string(kind);
  if (kind != FaultKind::kPowerCut && kind != FaultKind::kSpare) {
    os << " dev=" << (dev == kPrimaryDev ? std::string("primary")
                                         : "ssd" + std::to_string(dev));
  }
  if (kind == FaultKind::kSpare) os << " count=" << count;
  if (kind == FaultKind::kCorrupt || kind == FaultKind::kLatent) {
    os << " lba=" << lba_begin << ".." << lba_end;
    if (count > 0) os << " count=" << count;
  }
  if (kind == FaultKind::kLinkDegrade) {
    os << " factor=" << factor
       << " for=" << static_cast<double>(duration) / 1e9 << "s";
  }
  return os.str();
}

std::string FaultPlan::describe() const {
  std::string s;
  for (const FaultEvent& ev : events_) {
    if (!s.empty()) s += "; ";
    s += ev.describe();
  }
  return s;
}

Result<FaultPlan> FaultPlan::parse(const std::string& spec, u64 seed) {
  FaultPlan plan;
  plan.seed_ = seed;

  std::stringstream clauses(spec);
  std::string raw;
  while (std::getline(clauses, raw, ';')) {
    Clause c;
    c.text = raw;
    std::stringstream tokens(raw);
    std::string tok;
    while (tokens >> tok) {
      const size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        if (!c.action.empty())
          return clause_error(c, "more than one action ('" + c.action +
                                     "' and '" + tok + "')");
        c.action = tok;
      } else {
        const std::string key = tok.substr(0, eq);
        if (c.kv.contains(key))
          return clause_error(c, "duplicate key '" + key + "'");
        c.kv[key] = tok.substr(eq + 1);
      }
    }
    if (c.action.empty() && c.kv.empty()) continue;  // blank clause
    if (c.action.empty()) return clause_error(c, "missing action");

    FaultEvent ev;

    // Trigger.
    auto at = c.kv.find("at");
    if (at == c.kv.end()) return clause_error(c, "missing at=<trigger>");
    if (at->second.rfind("ops:", 0) == 0) {
      ev.trigger.kind = Trigger::Kind::kOps;
      if (!parse_u64(at->second.substr(4), &ev.trigger.at_ops))
        return clause_error(c, "bad op-count trigger '" + at->second + "'");
    } else {
      ev.trigger.kind = Trigger::Kind::kTime;
      if (!parse_duration(at->second, &ev.trigger.at_time))
        return clause_error(c, "bad time trigger '" + at->second + "'");
    }
    c.kv.erase("at");

    // Action + parameters.
    auto take_dev = [&]() -> Status {
      auto it = c.kv.find("dev");
      if (it == c.kv.end()) return clause_error(c, "missing dev=");
      if (!parse_dev(it->second, &ev.dev))
        return clause_error(c, "bad device '" + it->second + "'");
      c.kv.erase(it);
      return Status::ok();
    };
    auto take_range = [&]() -> Status {
      auto it = c.kv.find("lba");
      if (it == c.kv.end()) return clause_error(c, "missing lba=<a>..<b>");
      if (!parse_range(it->second, &ev.lba_begin, &ev.lba_end))
        return clause_error(c, "bad block range '" + it->second + "'");
      c.kv.erase(it);
      return Status::ok();
    };

    if (c.action == "fail" || c.action == "heal") {
      ev.kind = c.action == "fail" ? FaultKind::kFailStop : FaultKind::kHeal;
      if (Status s = take_dev(); !s.is_ok()) return s;
    } else if (c.action == "replace") {
      ev.kind = FaultKind::kReplace;
      if (Status s = take_dev(); !s.is_ok()) return s;
      if (ev.dev == kPrimaryDev)
        return clause_error(c, "replace targets an SSD, not the primary");
    } else if (c.action == "spare") {
      ev.kind = FaultKind::kSpare;
      ev.count = 1;
      if (auto it = c.kv.find("count"); it != c.kv.end()) {
        if (!parse_u64(it->second, &ev.count) || ev.count == 0 ||
            ev.count > 255) {
          return clause_error(c, "bad count '" + it->second + "'");
        }
        c.kv.erase(it);
      }
    } else if (c.action == "corrupt" || c.action == "latent") {
      ev.kind =
          c.action == "corrupt" ? FaultKind::kCorrupt : FaultKind::kLatent;
      if (Status s = take_dev(); !s.is_ok()) return s;
      if (Status s = take_range(); !s.is_ok()) return s;
      if (auto it = c.kv.find("count"); it != c.kv.end()) {
        if (ev.kind != FaultKind::kCorrupt)
          return clause_error(c, "count= only applies to corrupt");
        if (!parse_u64(it->second, &ev.count) || ev.count == 0)
          return clause_error(c, "bad count '" + it->second + "'");
        c.kv.erase(it);
      }
      if (ev.dev == kPrimaryDev)
        return clause_error(c, c.action + " targets an SSD, not the primary");
      // Unbounded per-block fault records would swamp the ledger.
      const u64 span = ev.count > 0 ? ev.count : ev.lba_end - ev.lba_begin;
      if (span > 1u << 20)
        return clause_error(c, "range injects > 1Mi block faults");
    } else if (c.action == "degrade") {
      ev.kind = FaultKind::kLinkDegrade;
      if (Status s = take_dev(); !s.is_ok()) return s;
      auto f = c.kv.find("factor");
      if (f == c.kv.end()) return clause_error(c, "missing factor=");
      if (!parse_double(f->second, &ev.factor) || ev.factor < 1.0 ||
          ev.factor > 1e6) {
        return clause_error(c, "factor must be in [1, 1e6], got '" +
                                   f->second + "'");
      }
      c.kv.erase(f);
      auto d = c.kv.find("for");
      if (d == c.kv.end()) return clause_error(c, "missing for=<duration>");
      if (!parse_duration(d->second, &ev.duration) || ev.duration == 0)
        return clause_error(c, "bad duration '" + d->second + "'");
      c.kv.erase(d);
    } else if (c.action == "powercut") {
      ev.kind = FaultKind::kPowerCut;
    } else {
      return clause_error(c, "unknown action '" + c.action + "'");
    }

    if (!c.kv.empty())
      return clause_error(c, "unknown key '" + c.kv.begin()->first + "'");
    plan.events_.push_back(ev);
  }
  return plan;
}

FaultPlan FaultPlan::parse_or_die(const std::string& spec, u64 seed) {
  auto r = parse(spec, seed);
  if (!r.is_ok()) throw std::invalid_argument(r.status().to_string());
  return std::move(r).take();
}

}  // namespace srcache::fault
