//! Disaggregation-oriented integration tests: switch pooling, multi-host
//! sharing of the far-memory segment, the federated cluster layer, and
//! Memory-Mode capacity expansion.

use streamer_repro::cxl::{CoherenceMode, CxlSwitch, FpgaPrototype, SharedRegion};
use streamer_repro::cxl_pmem::{
    assignment_bandwidth, ChunkHeat, PlanContext, RuntimeBuilder, StaticSpillPolicy, TierPlanner,
    TierShape,
};
use streamer_repro::numa::AffinityPolicy;

const GIB: u64 = 1024 * 1024 * 1024;

#[test]
fn rack_pool_provisions_and_reclaims_capacity_across_hosts() {
    let switch = CxlSwitch::new("rack");
    for _ in 0..4 {
        switch.attach_device(FpgaPrototype::paper_prototype().endpoint());
    }
    assert_eq!(switch.total_capacity(), 64 * GIB);
    // Three hosts grab capacity; the pool tracks per-host assignment.
    // (Allocations never span devices, so each request must fit one 16 GiB card.)
    let a = switch.allocate(0, 10 * GIB).unwrap();
    let b = switch.allocate(1, 16 * GIB).unwrap();
    let c = switch.allocate(2, 16 * GIB).unwrap();
    let _d = switch.allocate(2, 12 * GIB).unwrap();
    assert_eq!(switch.assigned_to(0), 10 * GIB);
    assert_eq!(switch.assigned_to(1), 16 * GIB);
    assert_eq!(switch.assigned_to(2), 28 * GIB);
    // Only 6 + 4 GiB fragments remain, and neither fits a whole 16 GiB request.
    assert!(switch.allocate(3, 16 * GIB).is_err());
    // Host 2 releases a card-sized allocation; host 3 can now be provisioned
    // (dynamic capacity).
    switch.release(c.id).unwrap();
    assert!(switch.allocate(3, 16 * GIB).is_ok());
    // Ports can be bound exclusively, and rebound after unbinding.
    switch.bind_port(a.port, 0).unwrap();
    assert!(switch.bind_port(a.port, 1).is_err());
    switch.unbind_port(a.port).unwrap();
    switch.bind_port(b.port, 1).unwrap();
    // A bound port is off-limits to everyone else: host 5's request must not
    // come from host 1's card even though it has free bytes.
    if let Ok(foreign) = switch.allocate(5, GIB) {
        assert_ne!(foreign.port, b.port, "bound port handed to another host");
    }
}

#[test]
fn cluster_federates_checkpoint_restart_over_the_pool() {
    use streamer_repro::cxl_pmem::cluster::{CoherenceMode, DisaggregatedCluster};

    let cluster = DisaggregatedCluster::new("rack", CoherenceMode::SoftwareManaged);
    for _ in 0..3 {
        cluster.attach_device(FpgaPrototype::paper_prototype().endpoint());
    }
    // Reserve a card per compute node; the third card stays pooled.
    cluster.bind_port(0, 0).unwrap();
    cluster.bind_port(1, 1).unwrap();

    let data_len = 64 * 1024u64;
    let state: Vec<u8> = (0..data_len).map(|i| (i % 239) as u8).collect();

    // Each host carves its own segment; capacity accounting stays conserved.
    let mut seg0 = cluster
        .host(0)
        .create_segment("node0", data_len, 4096)
        .unwrap();
    let mut seg1 = cluster
        .host(1)
        .create_segment("node1", data_len, 4096)
        .unwrap();
    assert_eq!(
        cluster.total_capacity(),
        cluster.unassigned_capacity() + cluster.assigned_to(0) + cluster.assigned_to(1)
    );
    seg0.checkpoint(&state).unwrap();
    seg1.checkpoint(&state).unwrap();

    // Node 0 fails; node 2 (a spare with no binding) takes over its segment
    // from the pooled tier.
    drop(seg0);
    let mut spare = cluster.host(2).attach_segment("node0").unwrap();
    spare.acquire().unwrap();
    let mut out = vec![0u8; data_len as usize];
    assert_eq!(spare.restore(&mut out).unwrap(), 1);
    assert_eq!(out, state);
}

#[test]
fn two_hosts_coordinate_through_the_shared_far_memory_segment() {
    let card = FpgaPrototype::paper_prototype();
    let region =
        SharedRegion::new(card.endpoint(), 0, GIB, CoherenceMode::SoftwareManaged).unwrap();
    let (writer, reader) = (region.attach(0), region.attach(1));

    // Host 0 and host 1 ping-pong a counter through the far memory, following
    // the publish/acquire discipline, from two real threads.
    let rounds = 16u64;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for round in 1..=rounds {
                writer.write(0, &round.to_le_bytes()).unwrap();
                writer.publish();
            }
        });
        scope.spawn(move || {
            let mut last_seen = 0u64;
            while last_seen < rounds {
                reader.acquire();
                let mut buf = [0u8; 8];
                reader.read(0, &mut buf).unwrap();
                let value = u64::from_le_bytes(buf);
                assert!(value >= last_seen, "counter must never move backwards");
                last_seen = last_seen.max(value);
            }
        });
    });
    let stats0 = region.stats(0).unwrap();
    let stats1 = region.stats(1).unwrap();
    assert_eq!(stats0.publishes, rounds);
    assert!(stats1.acquires >= 1);
    assert!(stats1.bytes_read >= 8);
}

#[test]
fn memory_mode_expansion_trades_bandwidth_for_capacity() {
    let runtime = RuntimeBuilder::setup1().build();
    let placement = runtime.place(&AffinityPolicy::SingleSocket(0), 10).unwrap();
    let cpus = placement.cpus();
    // The budgets are the nodes' capacities: the local DIMM, then the expander.
    let tiers: Vec<TierShape> = [0, 2]
        .into_iter()
        .map(|node| TierShape {
            node,
            capacity_bytes: runtime.topology().node(node).unwrap().mem_bytes,
        })
        .collect();
    // Static spill of a `gib` data set: (fraction on the expander, traffic split).
    let spill = |gib: u64| {
        let heat = vec![ChunkHeat::default(); gib as usize];
        let ctx = PlanContext {
            data_len: gib * GIB,
            chunk_bytes: GIB,
            heat: &heat,
            tiers: &tiers,
            engine: runtime.engine(),
            cpus,
            current: None,
        };
        StaticSpillPolicy.plan(&ctx).map(|plan| {
            (
                plan.fraction_on(1),
                plan.traffic_parts(&tiers, &ctx.effective_heat()),
            )
        })
    };
    let (fits_fraction, fits_locally) = spill(32).unwrap();
    let (spill_fraction, spills) = spill(76).unwrap();
    assert_eq!(fits_fraction, 0.0);
    assert!(spill_fraction > 0.1);

    let bandwidth = |parts: &[(usize, u64)]| {
        assignment_bandwidth(runtime.engine(), cpus, parts)
            .unwrap()
            .bandwidth_gbs
    };
    // A sweep that places *everything* on the expander (the naive membind=2
    // configuration) is much slower than both the local run and the spill plan
    // that only sends the overflow there.
    let all_on_cxl = bandwidth(&[(2, 1)]);
    assert!(bandwidth(&fits_locally) > all_on_cxl);
    assert!(bandwidth(&spills) > all_on_cxl);
    // And a dataset that exceeds DRAM+CXL is correctly rejected.
    assert!(spill(1000).is_err());
}

#[test]
fn upgraded_prototype_narrows_the_gap_to_local_ddr5() {
    // The paper's §2.2/§6 upgrade path: DDR5-5600 and four channels behind the
    // same CXL link should bring the expander close to the UPI-remote tier.
    let baseline = RuntimeBuilder::setup1().build();
    let upgraded = RuntimeBuilder::new()
        .machine(memsim::machines::sapphire_rapids_cxl_upgraded(4.2, 4))
        .build();
    let placement = baseline
        .place(&AffinityPolicy::SingleSocket(0), 10)
        .unwrap();
    let gb = 1_000_000_000u64;
    let base_cxl = baseline
        .simulate_stream_phase(
            "base",
            &placement,
            2,
            gb,
            gb / 2,
            streamer_repro::cxl_pmem::AccessMode::MemoryMode,
        )
        .unwrap()
        .bandwidth_gbs;
    let upgraded_cxl = upgraded
        .simulate_stream_phase(
            "upgraded",
            &placement,
            2,
            gb,
            gb / 2,
            streamer_repro::cxl_pmem::AccessMode::MemoryMode,
        )
        .unwrap()
        .bandwidth_gbs;
    let remote_ddr5 = baseline
        .simulate_stream_phase(
            "remote",
            &placement,
            1,
            gb,
            gb / 2,
            streamer_repro::cxl_pmem::AccessMode::MemoryMode,
        )
        .unwrap()
        .bandwidth_gbs;
    assert!(upgraded_cxl > 1.5 * base_cxl);
    assert!(
        upgraded_cxl > 0.8 * remote_ddr5,
        "upgraded {upgraded_cxl} vs remote {remote_ddr5}"
    );
}
