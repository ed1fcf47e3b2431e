//! The xenbus handshake: how split-driver halves find each other (§4.5.1).
//!
//! "The initial negotiation is done via XenStore: a frontend driver
//! allocates a shared page of memory and passes a grant reference and an
//! event channel to the backend driver. The backend driver watches for
//! this entry and establishes communication with the frontend when it
//! appears."
//!
//! This module implements that negotiation generically for any split
//! device class ([`DeviceKind`]), against the real [`XenStore`] and
//! [`Hypervisor`] models, so the control path of the paper — toolstack
//! wiring, grant passing, event-channel binding, and the
//! renegotiation-after-microreboot of Figure 6.3 — is exercised end to
//! end.

use xoar_hypervisor::grant::{GrantAccess, GrantRef};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, Hypercall, Hypervisor};
use xoar_xenstore::XenStore;

use crate::ring::{RingHub, RingId};

/// The xenbus connection states, as encoded in the `state` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum XenbusState {
    /// Initial state.
    Unknown = 0,
    /// Device being set up by the toolstack.
    Initialising = 1,
    /// Backend waiting for frontend details.
    InitWait = 2,
    /// Frontend has published ring-ref and event channel.
    Initialised = 3,
    /// Data path live.
    Connected = 4,
    /// Shutting down.
    Closing = 5,
    /// Torn down.
    Closed = 6,
}

impl XenbusState {
    /// Parses the decimal wire encoding.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "0" => Some(XenbusState::Unknown),
            "1" => Some(XenbusState::Initialising),
            "2" => Some(XenbusState::InitWait),
            "3" => Some(XenbusState::Initialised),
            "4" => Some(XenbusState::Connected),
            "5" => Some(XenbusState::Closing),
            "6" => Some(XenbusState::Closed),
            _ => None,
        }
    }

    /// The decimal wire encoding.
    pub fn encode(self) -> String {
        (self as u8).to_string()
    }
}

/// Split-device classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Paravirtual network interface.
    Vif,
    /// Paravirtual block device.
    Vbd,
    /// Paravirtual console.
    Console,
    /// Virtualised PCI configuration space (§5.3).
    Pci,
}

impl DeviceKind {
    /// The XenStore directory name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Vif => "vif",
            DeviceKind::Vbd => "vbd",
            DeviceKind::Console => "console",
            DeviceKind::Pci => "pci",
        }
    }
}

/// The frontend directory for a device.
pub fn frontend_path(guest: DomId, kind: DeviceKind, index: u32) -> String {
    format!("/local/domain/{}/device/{}/{}", guest.0, kind.name(), index)
}

/// The backend directory for a device: [`backend_dir`] and the index,
/// formatted in one allocation.
pub fn backend_path(backend: DomId, kind: DeviceKind, guest: DomId, index: u32) -> String {
    format!(
        "/local/domain/{}/backend/{}/{}/{index}",
        backend.0,
        kind.name(),
        guest.0
    )
}

/// The per-guest directory a backend keeps for one device class: the
/// parent of each of the guest's [`backend_path`]s, removed with the
/// guest.
pub fn backend_dir(backend: DomId, kind: DeviceKind, guest: DomId) -> String {
    format!(
        "/local/domain/{}/backend/{}/{}",
        backend.0,
        kind.name(),
        guest.0
    )
}

/// A fully negotiated split-device connection.
#[derive(Debug, Clone, Copy)]
pub struct Connection {
    /// Guest (frontend) domain.
    pub guest: DomId,
    /// Backend (driver) domain.
    pub backend: DomId,
    /// Device class.
    pub kind: DeviceKind,
    /// Device index.
    pub index: u32,
    /// The shared ring rendezvous.
    pub ring: RingId,
    /// Frontend's event-channel port.
    pub front_port: u32,
    /// Backend's event-channel port.
    pub back_port: u32,
}

/// Errors surfaced during negotiation.
#[derive(Debug)]
pub enum XenbusError {
    /// A hypervisor operation failed (privilege, grant, event channel).
    Hv(xoar_hypervisor::HvError),
    /// A XenStore operation failed.
    Xs(xoar_xenstore::XsError),
    /// The peer published malformed negotiation data.
    Protocol(String),
}

impl std::fmt::Display for XenbusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XenbusError::Hv(e) => write!(f, "hypervisor: {e}"),
            XenbusError::Xs(e) => write!(f, "xenstore: {e}"),
            XenbusError::Protocol(s) => write!(f, "protocol: {s}"),
        }
    }
}

impl std::error::Error for XenbusError {}

impl From<xoar_hypervisor::HvError> for XenbusError {
    fn from(e: xoar_hypervisor::HvError) -> Self {
        XenbusError::Hv(e)
    }
}

impl From<xoar_xenstore::XsError> for XenbusError {
    fn from(e: xoar_xenstore::XsError) -> Self {
        XenbusError::Xs(e)
    }
}

/// Result alias for xenbus operations.
pub type XbResult<T> = Result<T, XenbusError>;

/// Step 1 — toolstack wiring (§5.4): "During VM creation, the Toolstack
/// links a guest VM to the selected driver domain by writing the
/// appropriate frontend and backend XenStore entries."
pub fn toolstack_link(
    xs: &mut XenStore,
    actor: DomId,
    guest: DomId,
    backend: DomId,
    kind: DeviceKind,
    index: u32,
) -> XbResult<()> {
    let fp = frontend_path(guest, kind, index);
    let bp = backend_path(backend, kind, guest, index);
    xs.write_str(actor, &format!("{fp}/backend"), &bp)?;
    xs.write_str(actor, &format!("{fp}/backend-id"), &backend.0.to_string())?;
    xs.write_str(
        actor,
        &format!("{fp}/state"),
        &XenbusState::Initialising.encode(),
    )?;
    xs.write_str(actor, &format!("{bp}/frontend"), &fp)?;
    xs.write_str(actor, &format!("{bp}/frontend-id"), &guest.0.to_string())?;
    xs.write_str(
        actor,
        &format!("{bp}/state"),
        &XenbusState::InitWait.encode(),
    )?;
    // Hand the directories (and the keys just written) to their owners so
    // the drivers can negotiate without privileged connections.
    let mut fperms = xoar_xenstore::NodePerms::owner_only(guest);
    fperms.set_entry(backend, xoar_xenstore::PermLevel::Read);
    for node in [
        fp.clone(),
        format!("{fp}/backend"),
        format!("{fp}/backend-id"),
        format!("{fp}/state"),
    ] {
        xs.set_perms(actor, &node, fperms.clone())?;
    }
    let mut bperms = xoar_xenstore::NodePerms::owner_only(backend);
    bperms.set_entry(guest, xoar_xenstore::PermLevel::Read);
    for node in [
        bp.clone(),
        format!("{bp}/frontend"),
        format!("{bp}/frontend-id"),
        format!("{bp}/state"),
    ] {
        xs.set_perms(actor, &node, bperms.clone())?;
    }
    Ok(())
}

/// Step 2 — frontend initialisation: allocate the shared page, grant it
/// to the backend, allocate an unbound event channel, and publish
/// `ring-ref` / `event-channel` / `state = Initialised`.
pub fn frontend_init<Req, Resp>(
    hv: &mut Hypervisor,
    xs: &mut XenStore,
    hub: &mut RingHub<Req, Resp>,
    guest: DomId,
    kind: DeviceKind,
    index: u32,
    ring_pfn: Pfn,
) -> XbResult<(GrantRef, u32)> {
    let fp = frontend_path(guest, kind, index);
    let backend_id: u32 = xs
        .read_str(guest, &format!("{fp}/backend-id"))?
        .parse()
        .map_err(|_| XenbusError::Protocol("bad backend-id".into()))?;
    let backend = DomId(backend_id);
    let gref = hv
        .hypercall(
            guest,
            Hypercall::GnttabGrantAccess {
                grantee: backend,
                pfn: ring_pfn,
                access: GrantAccess::ReadWrite,
            },
        )?
        .grant_ref()?;
    let port = hv
        .hypercall(guest, Hypercall::EvtchnAllocUnbound { remote: backend })?
        .port()?;
    hub.create(RingId {
        granter: guest,
        gref,
    });
    xs.write_str(guest, &format!("{fp}/ring-ref"), &gref.0.to_string())?;
    xs.write_str(guest, &format!("{fp}/event-channel"), &port.to_string())?;
    xs.write_str(
        guest,
        &format!("{fp}/state"),
        &XenbusState::Initialised.encode(),
    )?;
    // The backend must be able to read the published rendezvous details.
    let mut perms = xoar_xenstore::NodePerms::owner_only(guest);
    perms.set_entry(backend, xoar_xenstore::PermLevel::Read);
    for node in [format!("{fp}/ring-ref"), format!("{fp}/event-channel")] {
        xs.set_perms(guest, &node, perms.clone())?;
    }
    Ok((gref, port))
}

/// Step 3 — backend accept: read the frontend's published details, map
/// the grant, bind the event channel, and move both ends to `Connected`.
pub fn backend_accept(
    hv: &mut Hypervisor,
    xs: &mut XenStore,
    backend: DomId,
    kind: DeviceKind,
    guest: DomId,
    index: u32,
) -> XbResult<Connection> {
    let bp = backend_path(backend, kind, guest, index);
    let fp = xs.read_str(backend, &format!("{bp}/frontend"))?;
    let state = xs.read_str(backend, &format!("{fp}/state"))?;
    if XenbusState::parse(&state) != Some(XenbusState::Initialised) {
        return Err(XenbusError::Protocol(format!(
            "frontend not initialised (state {state})"
        )));
    }
    let gref = GrantRef(
        xs.read_str(backend, &format!("{fp}/ring-ref"))?
            .parse()
            .map_err(|_| XenbusError::Protocol("bad ring-ref".into()))?,
    );
    let front_port: u32 = xs
        .read_str(backend, &format!("{fp}/event-channel"))?
        .parse()
        .map_err(|_| XenbusError::Protocol("bad event-channel".into()))?;
    // Map the grant — this is the audited capability use.
    hv.hypercall(
        backend,
        Hypercall::GnttabMapGrantRef {
            granter: guest,
            gref,
        },
    )?;
    let back_port = hv
        .hypercall(
            backend,
            Hypercall::EvtchnBindInterdomain {
                remote: guest,
                remote_port: front_port,
            },
        )?
        .port()?;
    xs.write_str(
        backend,
        &format!("{bp}/state"),
        &XenbusState::Connected.encode(),
    )?;
    // Frontend observes Connected and follows.
    xs.write_str(
        guest,
        &format!("{fp}/state"),
        &XenbusState::Connected.encode(),
    )?;
    Ok(Connection {
        guest,
        backend,
        kind,
        index,
        ring: RingId {
            granter: guest,
            gref,
        },
        front_port,
        back_port,
    })
}

/// Performs the complete three-step negotiation.
pub fn negotiate<Req, Resp>(
    hv: &mut Hypervisor,
    xs: &mut XenStore,
    hub: &mut RingHub<Req, Resp>,
    actor: DomId,
    guest: DomId,
    backend: DomId,
    kind: DeviceKind,
    index: u32,
    ring_pfn: Pfn,
) -> XbResult<Connection> {
    toolstack_link(xs, actor, guest, backend, kind, index)?;
    frontend_init(hv, xs, hub, guest, kind, index, ring_pfn)?;
    backend_accept(hv, xs, backend, kind, guest, index)
}

/// Tears down a connection (backend restart or device removal): detaches
/// the ring, closes the ports, and resets the xenbus states so a fresh
/// negotiation can run.
pub fn teardown<Req, Resp>(
    hv: &mut Hypervisor,
    xs: &mut XenStore,
    hub: &mut RingHub<Req, Resp>,
    conn: &Connection,
) -> XbResult<usize> {
    let lost = match hub.get_mut(conn.ring) {
        Ok(ring) => ring.detach(),
        Err(_) => 0,
    };
    hub.destroy(conn.ring);
    let _ = hv.hypercall(
        conn.guest,
        Hypercall::EvtchnClose {
            port: conn.front_port,
        },
    );
    let _ = hv.hypercall(
        conn.guest,
        Hypercall::GnttabEndAccess {
            gref: conn.ring.gref,
        },
    );
    let fp = frontend_path(conn.guest, conn.kind, conn.index);
    let bp = backend_path(conn.backend, conn.kind, conn.guest, conn.index);
    let _ = xs.write_str(
        conn.guest,
        &format!("{fp}/state"),
        &XenbusState::Closed.encode(),
    );
    let _ = xs.write_str(
        conn.backend,
        &format!("{bp}/state"),
        &XenbusState::InitWait.encode(),
    );
    Ok(lost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::domain::DomainRole;
    use xoar_hypervisor::PrivilegeSet;

    /// A platform with dom0 control VM, one backend shard, one guest.
    fn setup() -> (Hypervisor, XenStore, RingHub<u32, u32>, DomId, DomId, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 512, PrivilegeSet::dom0())
            .unwrap();
        let backend = hv
            .create_boot_domain("netback", DomainRole::Shard, 128, PrivilegeSet::default())
            .unwrap();
        // The backend needs to map grants.
        hv.hypercall(
            dom0,
            Hypercall::DomctlPermitHypercall {
                target: backend,
                id: xoar_hypervisor::HypercallId::GnttabMapGrantRef,
            },
        )
        .unwrap();
        let guest = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "guest".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: guest,
                frames: 16,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: guest })
            .unwrap();
        // Delegate the backend shard (and dom0 for xenstore) to the guest.
        hv.domain_mut(guest)
            .unwrap()
            .delegated_shards
            .insert(backend);
        hv.domain_mut(guest).unwrap().delegated_shards.insert(dom0);

        let mut xs = XenStore::new();
        xs.set_privileged(dom0, true);
        xs.create_domain_home(dom0, guest).unwrap();
        xs.create_domain_home(dom0, backend).unwrap();
        (hv, xs, RingHub::new(), dom0, backend, guest)
    }

    #[test]
    fn full_negotiation_connects() {
        let (mut hv, mut xs, mut hub, dom0, backend, guest) = setup();
        let conn = negotiate(
            &mut hv,
            &mut xs,
            &mut hub,
            dom0,
            guest,
            backend,
            DeviceKind::Vif,
            0,
            Pfn(1),
        )
        .unwrap();
        assert_eq!(conn.guest, guest);
        assert_eq!(conn.backend, backend);
        // Both state keys read Connected.
        let fp = frontend_path(guest, DeviceKind::Vif, 0);
        let bp = backend_path(backend, DeviceKind::Vif, guest, 0);
        assert_eq!(xs.read_str(dom0, &format!("{fp}/state")).unwrap(), "4");
        assert_eq!(xs.read_str(dom0, &format!("{bp}/state")).unwrap(), "4");
        // Ring exists and event channel is live in both directions.
        assert!(hub.get(conn.ring).unwrap().is_attached());
        hv.hypercall(
            guest,
            Hypercall::EvtchnSend {
                port: conn.front_port,
            },
        )
        .unwrap();
        assert!(hv.poll_event(backend).is_some());
    }

    #[test]
    fn backend_cannot_accept_before_frontend_init() {
        let (mut hv, mut xs, _hub, dom0, backend, guest) = setup();
        toolstack_link(&mut xs, dom0, guest, backend, DeviceKind::Vif, 0).unwrap();
        let err = backend_accept(&mut hv, &mut xs, backend, DeviceKind::Vif, guest, 0);
        assert!(matches!(err, Err(XenbusError::Protocol(_))));
    }

    #[test]
    fn negotiation_fails_without_delegation() {
        let (mut hv, mut xs, mut hub, dom0, backend, guest) = setup();
        // Revoke delegation: the IVC policy must refuse the grant.
        hv.domain_mut(guest)
            .unwrap()
            .delegated_shards
            .remove(&backend);
        let err = negotiate(
            &mut hv,
            &mut xs,
            &mut hub,
            dom0,
            guest,
            backend,
            DeviceKind::Vif,
            0,
            Pfn(1),
        );
        assert!(matches!(err, Err(XenbusError::Hv(_))));
    }

    #[test]
    fn teardown_enables_renegotiation() {
        let (mut hv, mut xs, mut hub, dom0, backend, guest) = setup();
        let conn = negotiate(
            &mut hv,
            &mut xs,
            &mut hub,
            dom0,
            guest,
            backend,
            DeviceKind::Vif,
            0,
            Pfn(1),
        )
        .unwrap();
        hub.get_mut(conn.ring).unwrap().push_request(42).unwrap();
        let lost = teardown(&mut hv, &mut xs, &mut hub, &conn).unwrap();
        assert_eq!(lost, 1, "in-flight request dropped on teardown");
        // Renegotiate: frontend re-publishes, backend re-accepts.
        frontend_init(
            &mut hv,
            &mut xs,
            &mut hub,
            guest,
            DeviceKind::Vif,
            0,
            Pfn(2),
        )
        .unwrap();
        let conn2 = backend_accept(&mut hv, &mut xs, backend, DeviceKind::Vif, guest, 0).unwrap();
        assert_ne!(conn.ring.gref, conn2.ring.gref, "fresh grant after restart");
        assert!(hub.get(conn2.ring).unwrap().is_attached());
    }

    #[test]
    fn state_round_trip() {
        for s in [
            XenbusState::Unknown,
            XenbusState::Initialising,
            XenbusState::InitWait,
            XenbusState::Initialised,
            XenbusState::Connected,
            XenbusState::Closing,
            XenbusState::Closed,
        ] {
            assert_eq!(XenbusState::parse(&s.encode()), Some(s));
        }
        assert_eq!(XenbusState::parse("7"), None);
        assert_eq!(XenbusState::parse("x"), None);
    }

    #[test]
    fn paths_follow_convention() {
        assert_eq!(
            frontend_path(DomId(5), DeviceKind::Vif, 0),
            "/local/domain/5/device/vif/0"
        );
        assert_eq!(
            backend_path(DomId(2), DeviceKind::Vbd, DomId(5), 1),
            "/local/domain/2/backend/vbd/5/1"
        );
    }
}
