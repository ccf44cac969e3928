//! The virtual-time charge model for RPC traffic.
//!
//! A call's latency is assembled from the pieces the paper identifies:
//! client-side encryption, network latency (per bridge hop) and transfer
//! time, queueing at the server CPU — "it is quite clear from our
//! measurements that the server CPU is the performance bottleneck in our
//! prototype" (Section 5.2) — then the server disk where a fetch or store
//! actually moves data, and the reply path home.
//!
//! Two of the paper's ablations are parameters here:
//!
//! * [`ServerStructure`] — the prototype's process-per-client design pays a
//!   heavyweight context switch on every call and an IPC hop to the
//!   dedicated lock-server process; the revised single-process LWP design
//!   pays neither (Section 3.5.2).
//! * [`EncryptionMode`] — software encryption charges CPU per byte on both
//!   ends ("software encryption is too slow to be viable", Section 5.1);
//!   hardware encryption charges a small fixed cost per message.

use itc_sim::costs::EncryptionMode;
use itc_sim::{Costs, Resource, ServerStructure, SimTime};

use crate::net::{Network, NodeId};

/// Everything the kernel needs to know about one call.
#[derive(Debug, Clone)]
pub struct CallSpec {
    /// Call kind label (for statistics): "fetch", "store", "validate", ...
    pub kind: &'static str,
    /// Request size on the wire, including any whole-file payload on store.
    pub request_bytes: u64,
    /// Reply size on the wire, including any whole-file payload on fetch.
    pub reply_bytes: u64,
    /// Handler CPU beyond the fixed per-call dispatch (pathname traversal,
    /// protection checks, status gathering...).
    pub server_cpu: SimTime,
    /// Bytes moved through the server disk (0 = purely in-memory call).
    pub disk_bytes: u64,
    /// Whether this call consults the lock server (pays an IPC hop in the
    /// process-per-client structure).
    pub lock_ipc: bool,
}

impl CallSpec {
    /// A small control-only call (no payload, no disk).
    pub fn control(kind: &'static str, server_cpu: SimTime) -> CallSpec {
        CallSpec {
            kind,
            request_bytes: 128,
            reply_bytes: 128,
            server_cpu,
            disk_bytes: 0,
            lock_ipc: false,
        }
    }
}

/// The timing kernel: cost table plus the two structural knobs.
#[derive(Debug, Clone)]
pub struct TimingKernel {
    costs: Costs,
    structure: ServerStructure,
    encryption: EncryptionMode,
}

impl TimingKernel {
    /// Creates a kernel.
    pub fn new(
        costs: Costs,
        structure: ServerStructure,
        encryption: EncryptionMode,
    ) -> TimingKernel {
        TimingKernel {
            costs,
            structure,
            encryption,
        }
    }

    /// The cost table.
    pub fn costs(&self) -> &Costs {
        &self.costs
    }

    /// The request leg of a call: the client seals and sends at `t0`, the
    /// network carries the bytes, and the result is the instant the request
    /// arrives at the server (before any CPU queueing).
    pub fn request_leg(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        t0: SimTime,
        request_bytes: u64,
    ) -> SimTime {
        let c = &self.costs;
        let sent = t0 + c.crypt_cost(self.encryption, request_bytes);
        sent + c.net_latency(net.hops(from, to)) + c.net_transfer(request_bytes)
    }

    /// Total server CPU demand for one call: dispatch + decrypt request +
    /// handler work + encrypt reply + structural overheads.
    pub fn service_demand(&self, spec: &CallSpec) -> SimTime {
        let c = &self.costs;
        let mut demand = c.srv_cpu_per_call
            + c.crypt_cost(self.encryption, spec.request_bytes)
            + spec.server_cpu
            + c.crypt_cost(self.encryption, spec.reply_bytes);
        if self.structure == ServerStructure::ProcessPerClient {
            demand += c.srv_cpu_context_switch;
            if spec.lock_ipc {
                demand += c.srv_cpu_lock_ipc;
            }
        }
        demand
    }

    /// Serves a request that arrived at `arrived`: queues on (and charges)
    /// the server CPU, then the disk if the call moves file data. Returns
    /// the instant the reply is ready to depart.
    pub fn service(
        &self,
        cpu: &mut Resource,
        disk: &mut Resource,
        arrived: SimTime,
        spec: &CallSpec,
    ) -> SimTime {
        let cpu_done = cpu.acquire(arrived, self.service_demand(spec));
        if spec.disk_bytes > 0 {
            disk.acquire(cpu_done, self.costs.disk_transfer(spec.disk_bytes))
        } else {
            cpu_done
        }
    }

    /// The reply leg: the reply departs the server at `served`, crosses the
    /// network, and the client decrypts it. Returns the completion instant.
    pub fn reply_leg(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        served: SimTime,
        reply_bytes: u64,
    ) -> SimTime {
        let c = &self.costs;
        served
            + c.net_latency(net.hops(from, to))
            + c.net_transfer(reply_bytes)
            + c.crypt_cost(self.encryption, reply_bytes)
    }

    /// Charges a one-way message (used for callback breaks, which need no
    /// reply before the server proceeds): returns its arrival time at `to`.
    pub fn one_way(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        t0: SimTime,
        bytes: u64,
    ) -> SimTime {
        let c = &self.costs;
        t0 + c.crypt_cost(self.encryption, bytes)
            + c.net_latency(net.hops(from, to))
            + c.net_transfer(bytes)
    }

    /// Charges the three-message mutual authentication handshake; returns
    /// the time at which the client may issue its first call.
    pub fn handshake(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        cpu: &mut Resource,
        t0: SimTime,
    ) -> SimTime {
        let c = &self.costs;
        let lat = c.net_latency(net.hops(from, to));
        let msg = c.net_transfer(96); // handshake messages are small

        // Message 1: client prepares and sends its challenge.
        let a1 = t0 + c.crypt_handshake + lat + msg;
        // Server verifies, answers, and challenges back (message 2).
        let s1 = cpu.acquire(a1, c.crypt_handshake);
        let a2 = s1 + lat + msg;
        // Client verifies the server and answers (message 3).
        let c2 = a2 + c.crypt_handshake;
        let a3 = c2 + lat + msg;
        // Server verifies the final answer; the client considers the
        // binding usable once message 3 is on the wire, but its first call
        // will queue behind this verification on the server CPU.
        let _ = cpu.acquire(a3, c.crypt_handshake / 2);
        a3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_sim::costs::EncryptionMode;

    fn setup() -> (Network, NodeId, NodeId, NodeId) {
        let net = Network::uniform(1);
        (net, net.ws_node(0), net.server_node(0), net.server_node(1))
    }

    fn kernel(structure: ServerStructure) -> TimingKernel {
        TimingKernel::new(Costs::prototype_1985(), structure, EncryptionMode::Hardware)
    }

    /// The completion instant of one call from `ws` to the server at `srv`
    /// issued at `t0`: its three legs composed as the transport's events
    /// chain them.
    #[allow(clippy::too_many_arguments)] // a call's real shape
    fn call(
        k: &TimingKernel,
        net: &Network,
        ws: NodeId,
        srv: NodeId,
        cpu: &mut Resource,
        disk: &mut Resource,
        t0: SimTime,
        spec: &CallSpec,
    ) -> SimTime {
        let arrived = k.request_leg(net, ws, srv, t0, spec.request_bytes);
        let served = k.service(cpu, disk, arrived, spec);
        k.reply_leg(net, srv, ws, served, spec.reply_bytes)
    }

    #[test]
    fn cross_cluster_calls_are_slower() {
        let (net, ws, local, remote) = setup();
        let k = kernel(ServerStructure::SingleProcessLwp);
        let mut cpu_a = Resource::new("cpu-a");
        let mut disk_a = Resource::new("disk-a");
        let mut cpu_b = Resource::new("cpu-b");
        let mut disk_b = Resource::new("disk-b");
        let spec = CallSpec::control("validate", SimTime::from_millis(10));
        let near = call(
            &k,
            &net,
            ws,
            local,
            &mut cpu_a,
            &mut disk_a,
            SimTime::ZERO,
            &spec,
        );
        let far = call(
            &k,
            &net,
            ws,
            remote,
            &mut cpu_b,
            &mut disk_b,
            SimTime::ZERO,
            &spec,
        );
        // Two extra hops each way (both issued at 0, so the completion
        // instants are the elapsed times).
        let c = Costs::prototype_1985();
        assert_eq!(
            far - near,
            c.net_latency_per_hop * 4,
            "near={near} far={far}"
        );
    }

    #[test]
    fn per_client_process_structure_costs_more_cpu() {
        let (net, ws, local, _) = setup();
        let spec = CallSpec {
            lock_ipc: true,
            ..CallSpec::control("lock", SimTime::ZERO)
        };
        let proto = kernel(ServerStructure::ProcessPerClient);
        let mut cpu1 = Resource::new("cpu");
        let mut disk1 = Resource::new("disk");
        let t_proto = call(
            &proto,
            &net,
            ws,
            local,
            &mut cpu1,
            &mut disk1,
            SimTime::ZERO,
            &spec,
        );

        let revised = kernel(ServerStructure::SingleProcessLwp);
        let mut cpu2 = Resource::new("cpu");
        let mut disk2 = Resource::new("disk");
        let t_rev = call(
            &revised,
            &net,
            ws,
            local,
            &mut cpu2,
            &mut disk2,
            SimTime::ZERO,
            &spec,
        );

        let c = Costs::prototype_1985();
        assert_eq!(
            t_proto - t_rev,
            c.srv_cpu_context_switch + c.srv_cpu_lock_ipc
        );
        assert!(cpu1.busy_total() > cpu2.busy_total());
    }

    #[test]
    fn software_encryption_dominates_large_transfers() {
        let (net, ws, local, _) = setup();
        let spec = CallSpec {
            kind: "fetch",
            request_bytes: 128,
            reply_bytes: 1 << 20, // 1 MiB file
            server_cpu: SimTime::ZERO,
            disk_bytes: 1 << 20,
            lock_ipc: false,
        };
        let sw = TimingKernel::new(
            Costs::prototype_1985(),
            ServerStructure::SingleProcessLwp,
            EncryptionMode::Software,
        );
        let hw = kernel(ServerStructure::SingleProcessLwp);

        let mut cpu1 = Resource::new("cpu");
        let mut disk1 = Resource::new("disk");
        let t_sw = call(
            &sw,
            &net,
            ws,
            local,
            &mut cpu1,
            &mut disk1,
            SimTime::ZERO,
            &spec,
        );
        let mut cpu2 = Resource::new("cpu");
        let mut disk2 = Resource::new("disk");
        let t_hw = call(
            &hw,
            &net,
            ws,
            local,
            &mut cpu2,
            &mut disk2,
            SimTime::ZERO,
            &spec,
        );
        // 2 µs/byte over ~2 MiB of end-to-end crypto work is seconds of
        // added latency.
        assert!(t_sw > t_hw + SimTime::from_secs(2), "sw={t_sw} hw={t_hw}");
    }

    #[test]
    fn concurrent_clients_queue_on_server_cpu() {
        let (net, ws, local, _) = setup();
        let k = kernel(ServerStructure::SingleProcessLwp);
        let mut cpu = Resource::new("cpu");
        let mut disk = Resource::new("disk");
        let spec = CallSpec::control("getstatus", SimTime::from_millis(100));
        // Two calls issued at the same instant: the second queues.
        let r1 = call(
            &k,
            &net,
            ws,
            local,
            &mut cpu,
            &mut disk,
            SimTime::ZERO,
            &spec,
        );
        let r2 = call(
            &k,
            &net,
            ws,
            local,
            &mut cpu,
            &mut disk,
            SimTime::ZERO,
            &spec,
        );
        assert!(r2 > r1);
        let rep = cpu.report(r2);
        assert!(rep.mean_queue_delay > SimTime::ZERO);
    }

    #[test]
    fn disk_charged_only_when_data_moves() {
        let (net, ws, local, _) = setup();
        let k = kernel(ServerStructure::SingleProcessLwp);
        let mut cpu = Resource::new("cpu");
        let mut disk = Resource::new("disk");
        let control = CallSpec::control("validate", SimTime::ZERO);
        call(
            &k,
            &net,
            ws,
            local,
            &mut cpu,
            &mut disk,
            SimTime::ZERO,
            &control,
        );
        assert_eq!(disk.busy_total(), SimTime::ZERO);
        let fetch = CallSpec {
            kind: "fetch",
            request_bytes: 128,
            reply_bytes: 60_000,
            server_cpu: SimTime::ZERO,
            disk_bytes: 60_000,
            lock_ipc: false,
        };
        call(
            &k,
            &net,
            ws,
            local,
            &mut cpu,
            &mut disk,
            SimTime::from_secs(1),
            &fetch,
        );
        assert_eq!(
            disk.busy_total(),
            Costs::prototype_1985().disk_transfer(60_000)
        );
    }

    #[test]
    fn handshake_takes_three_message_times() {
        let (net, ws, local, remote) = setup();
        let k = kernel(ServerStructure::SingleProcessLwp);
        let mut cpu = Resource::new("cpu");
        let near = k.handshake(&net, ws, local, &mut cpu, SimTime::ZERO);
        let mut cpu2 = Resource::new("cpu");
        let far = k.handshake(&net, ws, remote, &mut cpu2, SimTime::ZERO);
        // Three crossings, two hops each.
        let c = Costs::prototype_1985();
        assert_eq!(far - near, c.net_latency_per_hop * 6);
        assert!(near > SimTime::from_millis(100), "handshake is not free");
    }

    #[test]
    fn one_way_message_time() {
        let (net, ws, local, _) = setup();
        let k = kernel(ServerStructure::SingleProcessLwp);
        let t = k.one_way(&net, local, ws, SimTime::ZERO, 128);
        let c = Costs::prototype_1985();
        assert_eq!(
            t,
            c.crypt_cost(EncryptionMode::Hardware, 128) + c.net_latency(0) + c.net_transfer(128)
        );
    }
}
