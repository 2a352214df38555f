#include "gc/protocol.h"

#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gc/instance.h"
#include "gc/streaming.h"
#include "net/loopback.h"

namespace haac {

RemoteResult
runProtocol(const Netlist &netlist, const std::vector<bool> &garbler_bits,
            const std::vector<bool> &evaluator_bits, uint64_t seed)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument("protocol: wrong garbler input count");
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument("protocol: wrong evaluator input count");

    // A side that throws closes its end, so the other side's next
    // read or write fails instead of blocking.
    auto ends = LoopbackTransport::createPair();
    std::mutex mutex;
    std::exception_ptr first_error;
    const auto run_side = [&](std::unique_ptr<LoopbackTransport> &end,
                              const std::function<void(Transport &)> &fn) {
        try {
            fn(*end);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
            end.reset();
        }
    };

    RemoteResult res;
    std::thread garbler([&] {
        run_side(ends.first, [&](Transport &t) {
            runRemoteGarbler(netlist, garbler_bits, t, seed);
        });
    });
    run_side(ends.second, [&](Transport &t) {
        res = runRemoteEvaluator(netlist, evaluator_bits, t);
    });
    garbler.join();
    if (first_error)
        std::rethrow_exception(first_error);
    return res;
}

SoftwareGcTiming
timeSoftwareGc(const Netlist &netlist, uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    SoftwareGcTiming t;
    t.gates = netlist.numGates();

    auto start = Clock::now();
    const GarbledInstance inst = captureGarbling(netlist, seed);
    t.garbleSeconds = std::chrono::duration<double>(Clock::now() -
                                                    start).count();

    // All-zero inputs: the zero labels, except the constant-one wire.
    const InputLabels labels = inst.inputLabels();
    std::vector<Label> inputs = labels.zero;
    if (netlist.constOne != kNoWire)
        inputs[netlist.constOne] = labels.activeLabel(netlist.constOne, true);

    size_t next = 0;
    start = Clock::now();
    const std::vector<Label> outs = evaluateStreaming(
        netlist, inputs, [&] { return inst.tables[next++]; });
    t.evaluateSeconds = std::chrono::duration<double>(Clock::now() -
                                                      start).count();
    (void)outs;
    return t;
}

} // namespace haac
