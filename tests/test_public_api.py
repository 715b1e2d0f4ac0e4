"""Guard the documented public API surface (docs/API.md).

If a symbol documented there disappears or moves, this fails before
any downstream user notices.
"""

import importlib

import pytest

SURFACE = {
    "repro": [
        "ElasticConsistentHash", "ReintegrationEngine", "DirtyTable",
        "MembershipTable", "VersionHistory", "EqualWorkLayout",
        "primary_count", "equal_work_weights", "place_original",
        "place_primary", "PlacementResult", "HashRing", "__version__",
    ],
    "repro.core": [
        "ElasticConsistentHash", "ReintegrationEngine", "MigrationTask",
        "MigrationPlan", "DirtyEntry", "DirtyTable", "CapacityPlan",
        "ChainMode",
    ],
    "repro.core.dynamic_primaries": [
        "plan_primary_resize", "apply_relayout", "PrimaryResizePlan",
    ],
    "repro.cluster": [
        "ElasticCluster", "OriginalCHCluster", "StorageServer",
        "ObjectTable", "PowerState", "CapacityExceeded",
        "MigrationPlan", "VirtualDisk", "VdiRange",
        "check_cluster", "FsckReport", "FsckIssue",
        "PowerModel",
    ],
    "repro.cluster.runtime": [
        "ClusterRuntime", "ThreePhaseLoad", "REPLICAS", "DISK_BW",
        "CLIENT_CAP", "OBJECT_SIZE", "REINTEGRATION_RATE", "PHASE2_RATE",
        "DT", "MAX_DURATION", "PROBE_OBJECTS",
    ],
    "repro.simulation": [
        "Simulator", "max_min_fair", "FluidFlow", "FlowSet",
        "IOModel",
    ],
    "repro.workloads": [
        "three_phase_workload", "Phase", "generate_cc_a", "generate_cc_b",
        "generate_trace", "LoadTrace", "TraceSpec", "synthesize_load",
        "diurnal_profile", "burst_profile", "CC_A", "CC_B",
    ],
    "repro.policy": [
        "PolicyConfig", "PolicyResult", "simulate_policy",
        "OriginalCHPolicy", "PrimaryFullPolicy",
        "PrimarySelectivePolicy", "GreenCHTPolicy",
        "OracleController", "ReactiveController",
        "PredictiveController", "evaluate_provisioning",
        "replay_policy", "ReplayResult", "analyze_trace",
        "TraceAnalysis", "ideal_servers",
    ],
    "repro.experiments": [
        "run_resize_agility", "ResizeAgilityResult",
        "run_three_phase", "ThreePhaseResult",
        "run_layout_versions", "LayoutVersionsResult",
        "run_trace_analysis", "TraceExperiment",
    ],
    "repro.metrics": [
        "StepSeries", "shape_correlation", "holder_groups",
        "read_capacity", "proportionality_curve", "render_table",
        "render_series",
    ],
    "repro.faults": [
        "FaultEvent", "FaultPlan", "FaultInjector", "RetryPolicy",
        "PlannedTransfer", "TransferJob", "TransferManager",
        "ChaosResult", "run_chaos", "render_chaos_report",
    ],
    "repro.kvstore": [
        "KVStore", "WrongTypeError", "ReplicatedKVStore",
        "NoQuorumError", "StaleSessionError", "Session", "View",
        "KVChurnResult", "run_kv_churn", "render_kv_churn_report",
    ],
    "repro.serving": [
        "FlowController", "UnthrottledController",
        "FixedConcurrencyController", "AdaptiveQueueController",
        "make_controller", "Request", "AdmissionCoordinator",
        "ClosedLoopPopulation", "OpenLoopPopulation",
        "ServeResult", "run_serve", "render_serve_report",
    ],
    "repro.obs": [
        "OBS", "TraceBus", "JSONLSink", "MetricsRegistry",
        "InvariantSuite", "TraceParseError", "EmptyTraceError",
        "Profiler", "ProfileNode", "ProfileError", "profile_document",
        "collapsed_stacks", "load_profile", "render_profile",
        "render_run_report",
        "render_trace_stats", "check_trace", "render_check",
        "AnalyticsError", "build_analytics", "analytics_from_trace",
        "merge_analytics", "validate_analytics", "load_analytics",
        "dump_analytics", "render_timeline", "percentile",
    ],
    "repro.runner": [
        "TaskSpec", "TaskResult", "SweepRunner", "SweepResult",
        "render_sweep_report", "run_task",
    ],
    "repro.cli": ["main", "build_parser"],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in SURFACE[module_name]
               if not hasattr(module, name)]
    assert not missing, f"{module_name} lost: {missing}"


@pytest.mark.parametrize("module_name",
                         [m for m in sorted(SURFACE) if m != "repro.cli"])
def test_all_lists_are_importable(module_name):
    module = importlib.import_module(module_name)
    if not hasattr(module, "__all__"):
        return
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__: {name}"
