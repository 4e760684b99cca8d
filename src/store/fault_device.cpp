#include "store/fault_device.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "store/disk.h"

namespace ecfrm::store {
namespace {

/// %.17g shortest-round-trip double, matching the exporters' convention.
std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// The filter a rule actually matches with: torn writes only ever happen
/// on writes and bit flips are surfaced on reads, whatever the rule says.
FaultOp effective_op(const FaultRule& rule) {
    if (rule.kind == FaultKind::torn_write) return FaultOp::write;
    if (rule.kind == FaultKind::bit_flip) return FaultOp::read;
    return rule.op;
}

}  // namespace

const char* to_string(FaultKind kind) {
    switch (kind) {
        case FaultKind::fail_stop: return "fail_stop";
        case FaultKind::transient: return "transient";
        case FaultKind::torn_write: return "torn_write";
        case FaultKind::bit_flip: return "bit_flip";
        case FaultKind::latency: break;
    }
    return "latency";
}

Result<FaultKind> parse_fault_kind(std::string_view name) {
    if (name == "fail_stop") return FaultKind::fail_stop;
    if (name == "transient") return FaultKind::transient;
    if (name == "torn_write") return FaultKind::torn_write;
    if (name == "bit_flip") return FaultKind::bit_flip;
    if (name == "latency") return FaultKind::latency;
    return Error::invalid("unknown fault kind: " + std::string(name));
}

const char* to_string(FaultOp op) {
    switch (op) {
        case FaultOp::read: return "read";
        case FaultOp::write: return "write";
        case FaultOp::any: break;
    }
    return "any";
}

std::string FaultPlan::to_json() const {
    std::string out = "{\"schema\":\"ecfrm.faultplan.v1\",";
    // Seed is emitted as a decimal string: JSON numbers are doubles and
    // would silently round seeds above 2^53.
    out += "\"seed\":\"" + std::to_string(seed) + "\",";
    out += "\"max_burst\":" + std::to_string(max_burst) + ",";
    out += "\"rules\":[";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const FaultRule& r = rules[i];
        if (i > 0) out += ",";
        out += "{\"kind\":\"" + std::string(to_string(r.kind)) + "\"";
        out += ",\"disk\":" + std::to_string(r.disk);
        out += ",\"op\":\"" + std::string(to_string(r.op)) + "\"";
        out += ",\"first_op\":" + std::to_string(r.first_op);
        out += ",\"count\":" + std::to_string(r.count);
        out += ",\"probability\":" + fmt_double(r.probability);
        out += ",\"latency_ms\":" + fmt_double(r.latency_ms);
        out += ",\"torn_fraction\":" + fmt_double(r.torn_fraction);
        out += ",\"flip_offset\":" + std::to_string(r.flip_offset);
        out += std::string(",\"detected\":") + (r.detected ? "true" : "false");
        out += "}";
    }
    out += "]}";
    return out;
}

Result<FaultPlan> FaultPlan::from_json(std::string_view text) {
    auto doc = obs::json::parse(text);
    if (!doc.ok()) return doc.error();
    const obs::json::Value& root = doc.value();
    if (!root.is_object()) return Error::invalid("fault plan: top level must be an object");
    const std::string schema = root.string_or("schema", "");
    if (schema != "ecfrm.faultplan.v1") {
        return Error::invalid("fault plan: unsupported schema \"" + schema + "\"");
    }

    FaultPlan plan;
    if (const obs::json::Value* seed = root.find("seed")) {
        if (seed->is_string()) {
            plan.seed = std::strtoull(seed->as_string().c_str(), nullptr, 10);
        } else if (seed->is_number()) {
            plan.seed = static_cast<std::uint64_t>(seed->as_number());
        } else {
            return Error::invalid("fault plan: seed must be a string or number");
        }
    }
    plan.max_burst = static_cast<int>(root.number_or("max_burst", 0.0));

    const obs::json::Value* rules = root.find("rules");
    if (rules == nullptr || !rules->is_array()) {
        return Error::invalid("fault plan: missing \"rules\" array");
    }
    for (const obs::json::Value& item : rules->items()) {
        if (!item.is_object()) return Error::invalid("fault plan: each rule must be an object");
        FaultRule r;
        auto kind = parse_fault_kind(item.string_or("kind", ""));
        if (!kind.ok()) return kind.error();
        r.kind = kind.value();
        r.disk = static_cast<DiskId>(item.number_or("disk", -1.0));
        const std::string op = item.string_or("op", "any");
        if (op == "any") {
            r.op = FaultOp::any;
        } else if (op == "read") {
            r.op = FaultOp::read;
        } else if (op == "write") {
            r.op = FaultOp::write;
        } else {
            return Error::invalid("fault plan: unknown op filter \"" + op + "\"");
        }
        r.first_op = static_cast<std::int64_t>(item.number_or("first_op", 0.0));
        r.count = static_cast<std::int64_t>(item.number_or("count", 1.0));
        r.probability = item.number_or("probability", 1.0);
        r.latency_ms = item.number_or("latency_ms", 0.0);
        r.torn_fraction = item.number_or("torn_fraction", 0.5);
        r.flip_offset = static_cast<std::int64_t>(item.number_or("flip_offset", 0.0));
        if (const obs::json::Value* detected = item.find("detected")) {
            r.detected = detected->is_bool() && detected->as_bool();
        }
        plan.rules.push_back(r);
    }
    return plan;
}

FaultDevice::FaultDevice(std::unique_ptr<BlockDevice> inner, const FaultPlan& plan, DiskId disk)
    : inner_(std::move(inner)),
      disk_(disk),
      max_burst_(plan.max_burst),
      rng_(plan.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(disk + 1))) {
    for (const FaultRule& rule : plan.rules) {
        if (rule.disk == -1 || rule.disk == disk) rules_.push_back(rule);
    }
}

FaultDevice::Decision FaultDevice::decide(bool is_read, RowId row, std::int64_t* op_seq) const {
    const std::int64_t seq_any = read_ops_ + write_ops_;
    const std::int64_t seq_dir = is_read ? read_ops_ : write_ops_;
    if (is_read) {
        ++read_ops_;
    } else {
        ++write_ops_;
    }
    *op_seq = seq_dir;

    bool probabilistic_fired = false;
    Decision decision;
    for (const FaultRule& rule : rules_) {
        const FaultOp filter = effective_op(rule);
        if (filter == FaultOp::read && !is_read) continue;
        if (filter == FaultOp::write && is_read) continue;
        const std::int64_t seq = (filter == FaultOp::any) ? seq_any : seq_dir;
        if (seq < rule.first_op || seq >= rule.first_op + rule.count) continue;
        if (rule.probability < 1.0) {
            // Draw before the burst check so the stream stays aligned
            // whether or not the cap suppresses this injection.
            const bool hit = rng_.next_double() < rule.probability;
            if (!hit) continue;
            if (max_burst_ > 0 && burst_ >= max_burst_) continue;
            probabilistic_fired = true;
        }
        decision.fired = true;
        decision.kind = rule.kind;
        decision.rule = &rule;
        *op_seq = seq;
        break;
    }
    burst_ = probabilistic_fired ? burst_ + 1 : 0;
    if (decision.fired) {
        events_.push_back(Event{*op_seq, decision.kind, is_read, row});
    }
    return decision;
}

Status FaultDevice::read(RowId row, ByteSpan out) const {
    double stall_ms = 0.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (tripped_) return Error::disk_failed("fault-injected fail-stop");
        if (detected_rows_.count(row) != 0) {
            return Error::corrupt("device EDC: row damaged by injected bit flip");
        }
        std::int64_t seq = 0;
        const Decision d = decide(/*is_read=*/true, row, &seq);
        if (d.fired) {
            switch (d.kind) {
                case FaultKind::fail_stop: {
                    tripped_ = true;
                    inner_->fail();
                    return Error::disk_failed("fault-injected fail-stop");
                }
                case FaultKind::transient:
                    return Error::io("fault-injected transient read error");
                case FaultKind::bit_flip: {
                    const std::int64_t eb = inner_->element_bytes();
                    const std::size_t offset =
                        static_cast<std::size_t>(((d.rule->flip_offset % eb) + eb) % eb);
                    // Rows never written can't be flipped; the rule is a no-op there.
                    (void)inner_->corrupt_byte(row, offset);
                    if (d.rule->detected) {
                        detected_rows_.insert(row);
                        return Error::corrupt("device EDC: row damaged by injected bit flip");
                    }
                    break;  // silent: the read below serves the flipped bytes
                }
                case FaultKind::latency:
                    stall_ms = d.rule->latency_ms;
                    break;
                case FaultKind::torn_write:
                    break;  // unreachable: effective_op() pins torn_write to writes
            }
        }
    }
    if (stall_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
    }
    return inner_->read(row, out);
}

Status FaultDevice::write(RowId row, ConstByteSpan data) {
    double stall_ms = 0.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (tripped_) return Error::disk_failed("fault-injected fail-stop");
        std::int64_t seq = 0;
        const Decision d = decide(/*is_read=*/false, row, &seq);
        if (d.fired) {
            switch (d.kind) {
                case FaultKind::fail_stop: {
                    tripped_ = true;
                    inner_->fail();
                    return Error::disk_failed("fault-injected fail-stop");
                }
                case FaultKind::transient:
                    return Error::io("fault-injected transient write error");
                case FaultKind::torn_write: {
                    // A prefix of the payload lands over whatever the row
                    // held before; the op still reports failure, exactly
                    // like a crash mid-write.
                    const auto total = static_cast<std::int64_t>(data.size());
                    std::int64_t landed = static_cast<std::int64_t>(
                        static_cast<double>(total) * d.rule->torn_fraction);
                    landed = std::clamp<std::int64_t>(landed, 1, total - 1);
                    std::vector<std::uint8_t> merged(static_cast<std::size_t>(total), 0);
                    if (row < inner_->rows()) {
                        (void)inner_->read(row, ByteSpan(merged));
                    }
                    std::copy(data.begin(), data.begin() + landed, merged.begin());
                    (void)inner_->write(row, ConstByteSpan(merged));
                    return Error::io("fault-injected torn write");
                }
                case FaultKind::latency:
                    stall_ms = d.rule->latency_ms;
                    break;
                case FaultKind::bit_flip:
                    break;  // unreachable: effective_op() pins bit_flip to reads
            }
        }
    }
    if (stall_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
    }
    return inner_->write(row, data);
}

void FaultDevice::fail() {
    std::lock_guard<std::mutex> lock(mu_);
    tripped_ = true;
    inner_->fail();
}

void FaultDevice::replace() {
    std::lock_guard<std::mutex> lock(mu_);
    tripped_ = false;
    detected_rows_.clear();
    inner_->replace();
}

bool FaultDevice::failed() const {
    return tripped_.load(std::memory_order_acquire) || inner_->failed();
}

std::vector<FaultDevice::Event> FaultDevice::events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::int64_t FaultDevice::read_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_ops_;
}

std::int64_t FaultDevice::write_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_ops_;
}

std::function<Result<std::unique_ptr<BlockDevice>>(int)> faulty_memory_factory(
    std::int64_t element_bytes, const FaultPlan& plan) {
    return [element_bytes, plan](int index) -> Result<std::unique_ptr<BlockDevice>> {
        return std::unique_ptr<BlockDevice>(std::make_unique<FaultDevice>(
            std::make_unique<Disk>(element_bytes), plan, static_cast<DiskId>(index)));
    };
}

}  // namespace ecfrm::store
