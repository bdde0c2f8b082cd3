// Lint fixture: must trigger `raw-timer` exactly once when scanned as a
// process-code path (src/gcs/, src/invocation/, src/replication/,
// src/newtop/).  Never compiled.
namespace fixture {

struct Retry {
    newtop::ProcessTimer timer;  // owned: cancelled with this object

    void arm(newtop::Orb& orb) { timer.arm(orb, 10, [this] { fire(); }); }

    void leak(newtop::Orb& orb) {
        orb.scheduler().schedule_after(10, [this] { fire(); });
    }

    void fire() {}
};

}  // namespace fixture
