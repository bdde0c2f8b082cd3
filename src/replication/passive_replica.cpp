#include "replication/passive_replica.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

namespace {

std::string checkpoint_object_name(const std::string& service, EndpointId member) {
    return "pstate:" + service + ":" + std::to_string(member.value());
}

/// A position in the totally-ordered request stream: (view epoch, index of
/// the request within that epoch).  Identical at every member because all
/// members deliver the same requests in the same order per view.
struct StreamPos {
    ViewEpoch epoch{0};
    std::uint64_t index{0};

    friend auto operator<=>(const StreamPos&, const StreamPos&) = default;
};

}  // namespace

class PassiveReplica::Shim : public GroupServant {
public:
    Shim(NewTopService& nso, std::string service, std::shared_ptr<StatefulServant> app,
         bool founding)
        : nso_(&nso), service_(std::move(service)), app_(std::move(app)), primary_(founding) {}

    Bytes handle(std::uint32_t method, const Bytes& args) override {
        const StreamPos pos{epoch_, next_index_++};
        if (primary_) {
            ++executed_;
            Bytes result = app_->handle(method, args);  // may throw to the client
            // Checkpoints are tagged with the *count* of requests covered
            // ({epoch, index + 1}), so they strictly supersede each other.
            if (executed_ % kCheckpointEvery == 0) {
                send_checkpoint(StreamPos{pos.epoch, pos.index + 1});
            }
            return result;
        }
        // Backup: log only; with asynchronous forwarding the reply is never
        // used (the primary answered the client already).  A checkpoint can
        // overtake a request it covers; failover must not replay that one.
        if (has_applied_ && pos < applied_) return {};
        log_.push_back(LogEntry{pos, method, args});
        return {};
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        // Backups only log; the real execution cost is paid by the primary.
        return primary_ ? app_->execution_cost(method) : SimDuration{5};
    }

    void install_checkpoint(BytesView body) {
        Decoder d(body);
        StreamPos pos;
        decode(d, pos.epoch);
        decode(d, pos.index);
        const Bytes snapshot = d.get_blob();
        if (has_applied_ && pos <= applied_) return;  // stale checkpoint
        if (primary_) return;  // we are authoritative
        app_->restore(snapshot);
        applied_ = pos;
        has_applied_ = true;
        // The checkpoint covers all requests with index < pos.index in its
        // epoch (and everything from earlier epochs).
        std::erase_if(log_, [&](const LogEntry& entry) {
            return entry.pos.epoch < pos.epoch ||
                   (entry.pos.epoch == pos.epoch && entry.pos.index < pos.index);
        });
    }

    void on_view(const GroupCommEndpoint::ViewChangeEvent& event) {
        const Directory::GroupInfo* info = nso_->directory().find_group(service_);
        if (info == nullptr || event.view.group != info->id) return;
        epoch_ = event.view.epoch;
        next_index_ = 0;
        members_ = event.view.members;

        const bool should_lead = event.view.leader() == nso_->id();
        if (should_lead && !primary_) {
            // Failover: replay the logged suffix past our last checkpoint,
            // then take over as primary (the restricted-group clients will
            // rebind to us, and their retries hit the reply caches).
            NEWTOP_INFO("passive replica " << nso_->id() << " takes over " << service_
                                           << " (replaying " << log_.size() << " requests)");
            for (const LogEntry& entry : log_) {
                try {
                    ++executed_;
                    app_->handle(entry.method, entry.args);
                } catch (const ServantError&) {
                    // a request that failed at the old primary fails here too
                }
            }
            log_.clear();
            primary_ = true;
            send_checkpoint(StreamPos{epoch_, 0});
        } else if (!should_lead && primary_) {
            primary_ = false;  // partitioned minority side demotes itself
        }
    }

    [[nodiscard]] bool is_primary() const { return primary_; }
    [[nodiscard]] std::uint64_t executed() const { return executed_; }
    [[nodiscard]] std::size_t log_size() const { return log_.size(); }

private:
    struct LogEntry {
        StreamPos pos;
        std::uint32_t method;
        Bytes args;
    };

    void send_checkpoint(StreamPos pos) {
        Encoder e;
        encode(e, pos.epoch);
        encode(e, pos.index);
        e.put_blob(app_->snapshot());
        const Bytes body = std::move(e).take();
        for (const EndpointId member : members_) {
            if (member == nso_->id()) continue;
            const Ior* target =
                nso_->directory().find_object(checkpoint_object_name(service_, member));
            if (target != nullptr) {
                nso_->orb().invoke_oneway(*target, kCheckpointInstallMethod, body);
            }
        }
    }

    NewTopService* nso_;
    std::string service_;
    std::shared_ptr<StatefulServant> app_;
    bool primary_;
    ViewEpoch epoch_{0};
    std::uint64_t next_index_{0};
    std::uint64_t executed_{0};
    std::vector<EndpointId> members_;
    std::deque<LogEntry> log_;
    StreamPos applied_;
    bool has_applied_{false};
};

class PassiveReplica::CheckpointServant : public Servant {
public:
    explicit CheckpointServant(std::shared_ptr<Shim> shim) : shim_(std::move(shim)) {}

    Bytes dispatch(std::uint32_t method, BytesView args) override {
        if (method != kCheckpointInstallMethod) throw ServantError("unknown method");
        try {
            shim_->install_checkpoint(args);
        } catch (const DecodeError& err) {
            NEWTOP_WARN("passive replica: bad checkpoint: " << err.what());
        }
        return {};
    }

private:
    std::shared_ptr<Shim> shim_;
};

PassiveReplica::PassiveReplica(NewTopService& nso, std::string service,
                               const GroupConfig& config,
                               std::shared_ptr<StatefulServant> app)
    : nso_(&nso), service_(std::move(service)) {
    NEWTOP_EXPECTS(app != nullptr, "passive replica needs an application servant");

    const bool founding = nso_->directory().find_group(service_) == nullptr;
    shim_ = std::make_shared<Shim>(*nso_, service_, std::move(app), founding);

    const Ior checkpoint_ior = nso_->orb().adapter().activate(
        std::make_shared<CheckpointServant>(shim_), "PassiveCheckpoint");
    nso_->directory().register_object(checkpoint_object_name(service_, nso_->id()),
                                      checkpoint_ior);

    nso_->add_view_observer(
        [shim = shim_](const GroupCommEndpoint::ViewChangeEvent& event) { shim->on_view(event); });

    nso_->serve(service_, config, shim_);
}

bool PassiveReplica::is_primary() const { return shim_->is_primary(); }

std::uint64_t PassiveReplica::executed() const { return shim_->executed(); }

std::size_t PassiveReplica::log_size() const { return shim_->log_size(); }

}  // namespace newtop
