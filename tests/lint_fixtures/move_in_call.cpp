// Lint fixture: must trigger `move-in-call` exactly three times, once per
// call that reads a buffer in its cost argument while its closure moves
// that buffer.  Never compiled.
namespace fixture {

void send(Cpu& cpu, Bytes wire) {
    cpu.execute(marshal_cost(wire.size()), [wire = std::move(wire)]() mutable { ship(wire); });
}

void reply(Cpu& cpu, Bytes wire) {
    cpu.execute(marshal_cost(wire.size()),
                [this, to, wire = std::move(wire)]() mutable { ship(wire); });
}

void receive(Cpu& cpu, Bytes payload) {
    cpu.execute(unmarshal_cost(payload.size()),
                [this, payload = std::move(payload)] { complete(payload); });
}

void clean(Cpu& cpu, Bytes wire) {
    const Duration cost = marshal_cost(wire.size());
    cpu.execute(cost, [wire = std::move(wire)]() mutable { ship(wire); });
}

}  // namespace fixture
