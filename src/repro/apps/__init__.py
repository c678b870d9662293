"""The paper's stateful in-switch applications (§6, Table 1)."""

from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.apps.epc_sgw import (
    EpcSgwApp,
    GTP_PORT,
    is_signaling,
    make_data_packet,
    make_signaling_packet,
)
from repro.apps.firewall import (
    FirewallApp,
    STATE_CLOSED,
    STATE_ESTABLISHED,
    STATE_NEW,
)
from repro.apps.heavy_hitter import HeavyHitterApp, vlan_store_key
from repro.apps.kv_store import (
    KV_SERVICE_IP,
    KV_UDP_PORT,
    KvStoreApp,
    OP_READ,
    OP_UPDATE,
    install_kv_routes,
    make_request,
    parse_reply,
)
from repro.apps.load_balancer import (
    LoadBalancerApp,
    VIP,
    install_vip_routes,
    make_dip_allocator,
)
from repro.apps.nat import NAT_PUBLIC_IP, NatApp, install_nat_routes, is_internal
from repro.apps.sequencer import (
    SEQUENCER_IP,
    SEQUENCER_PORT,
    SequencerApp,
    install_sequencer_routes,
    make_sequenced_request,
    parse_stamp,
)
from repro.apps.superspreader import SPREAD_STORE_KEY, SuperSpreaderApp
from repro.apps.syn_defense import SynDefenseApp, syn_cookie

#: Every §6 application, deployable with defaults — the set
#: ``repro.tools verify --all`` sweeps. Each spec gives a zero-argument
#: factory and, for apps whose state lives in lazy-snapshot structures,
#: a ``structures`` callable (app -> {store_key: LazySnapshotArray})
#: so verification runs with the snapshot replicator in the pipeline,
#: exactly as the experiments deploy them.
BUILTIN_APPS = {
    "async_counter": {
        "factory": AsyncCounterApp,
        "structures": lambda app: {AsyncCounterApp.STORE_KEY: app.counters},
    },
    "sync_counter": {"factory": SyncCounterApp},
    "epc_sgw": {"factory": EpcSgwApp},
    "firewall": {"factory": FirewallApp},
    "heavy_hitter": {
        "factory": lambda: HeavyHitterApp(vlans=[10, 20]),
        "structures": lambda app: app.snapshot_structures(),
    },
    "kv_store": {"factory": KvStoreApp},
    "load_balancer": {"factory": LoadBalancerApp},
    "nat": {"factory": NatApp},
    "sequencer": {"factory": SequencerApp},
    "superspreader": {
        "factory": SuperSpreaderApp,
        "structures": lambda app: app.snapshot_structures(),
    },
    "syn_defense": {"factory": SynDefenseApp},
}

__all__ = [
    "BUILTIN_APPS",
    "AsyncCounterApp",
    "SyncCounterApp",
    "EpcSgwApp",
    "GTP_PORT",
    "is_signaling",
    "make_data_packet",
    "make_signaling_packet",
    "FirewallApp",
    "STATE_CLOSED",
    "STATE_ESTABLISHED",
    "STATE_NEW",
    "HeavyHitterApp",
    "vlan_store_key",
    "KV_SERVICE_IP",
    "KV_UDP_PORT",
    "KvStoreApp",
    "OP_READ",
    "OP_UPDATE",
    "install_kv_routes",
    "make_request",
    "parse_reply",
    "LoadBalancerApp",
    "VIP",
    "install_vip_routes",
    "make_dip_allocator",
    "NAT_PUBLIC_IP",
    "NatApp",
    "install_nat_routes",
    "is_internal",
    "SEQUENCER_IP",
    "SEQUENCER_PORT",
    "SequencerApp",
    "install_sequencer_routes",
    "make_sequenced_request",
    "parse_stamp",
    "SPREAD_STORE_KEY",
    "SuperSpreaderApp",
    "SynDefenseApp",
    "syn_cookie",
]
