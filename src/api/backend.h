/**
 * @file
 * Pluggable execution backends for haac::Session.
 *
 * A Backend is one way of running a garbled circuit: the software
 * two-party protocol on the CPU, the HAAC accelerator model, or —
 * through the registry — anything a downstream user links in (a
 * sharded multi-core sim, a remote two-machine channel, ...). The
 * Session hands the backend its circuit, inputs, and configuration;
 * the backend answers with one RunReport. A backend keeps no
 * configuration of its own beyond HaacSimBackend's SimMode pin and
 * RemoteGcBackend's connected transport.
 *
 * Registry: backends self-register under a stable string name
 * ("software-gc", "haac-sim", "haac-sim-sharded", "remote-gc").
 * Session::run("name") resolves through it, so new backends plug in
 * without touching any caller.
 */
#ifndef HAAC_API_BACKEND_H
#define HAAC_API_BACKEND_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/run_report.h"

namespace haac {

class Session;
class Transport;

class Backend
{
  public:
    virtual ~Backend() = default;

    /** Stable identifier, echoed into RunReport::backend. */
    virtual const char *name() const = 0;

    /** Execute the session's circuit and produce a structured report. */
    virtual RunReport execute(const Session &session) = 0;
};

/**
 * The EMP-class CPU baseline: runs the real two-party protocol
 * (garble, IKNP OT, channel transfer, evaluate) and reports
 * outputs plus exact communication accounting.
 */
class SoftwareGcBackend : public Backend
{
  public:
    const char *name() const override { return "software-gc"; }
    RunReport execute(const Session &session) override;
};

/**
 * The HAAC accelerator model: assemble → compile (RO/RN/ESW) →
 * generate streams → cycle-level simulation, plus the activity-driven
 * energy model, on the Session's HaacConfig. Optionally pinned to a
 * SimMode that overrides the Session's (Session::runHaacSim(mode)).
 */
class HaacSimBackend : public Backend
{
  public:
    HaacSimBackend() = default;
    explicit HaacSimBackend(SimMode mode) : mode_(mode) {}

    const char *name() const override { return "haac-sim"; }
    RunReport execute(const Session &session) override;

  private:
    std::optional<SimMode> mode_;
};

/**
 * The networked two-party runtime: this process plays one GC role
 * (Session::withRemote) and the peer — another remote-gc session, a
 * remote_millionaires process, or a haac_server — plays the other,
 * over a framed Transport. Streams garbled tables in segments, so
 * memory stays O(wires) regardless of circuit size. The report
 * carries outputs, the same communication accounting as the
 * software-gc backend, measured on the wire, and the net section (raw bytes,
 * segments, gates/s).
 */
class RemoteGcBackend : public Backend
{
  public:
    /** Endpoint/role come from the Session (withRemote). */
    RemoteGcBackend() = default;

    /**
     * Run over an already-connected transport in a fixed role —
     * how tests drive both ends of a LoopbackTransport pair without
     * ports, and how callers bring their own connection.
     */
    RemoteGcBackend(std::shared_ptr<Transport> transport, Role role);

    const char *name() const override { return "remote-gc"; }
    RunReport execute(const Session &session) override;

  private:
    std::shared_ptr<Transport> transport_;
    std::optional<Role> role_;
};

/** @name Backend registry */
/// @{
using BackendFactory = std::function<std::unique_ptr<Backend>()>;

/**
 * Register a factory under @p name.
 *
 * @return false (and leaves the registry unchanged) when the name is
 *         already taken.
 */
bool registerBackend(const std::string &name, BackendFactory factory);

/**
 * Instantiate a registered backend.
 *
 * @throws std::invalid_argument listing the registered names when
 *         @p name is unknown.
 */
std::unique_ptr<Backend> createBackend(const std::string &name);

/** Registered backend names, sorted. */
std::vector<std::string> backendNames();
/// @}

} // namespace haac

#endif // HAAC_API_BACKEND_H
