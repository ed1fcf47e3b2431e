//! The paravirtual block path: BlkFront ↔ BlkBack (§5.4).
//!
//! BlkBack is a driver domain owning one physical disk controller via PCI
//! passthrough. It hosts the real device driver (modelled by
//! [`DiskModel`]), exposes abstract block devices to guests over I/O
//! rings, and — because Xoar separates it from the Toolstack — runs "a
//! lightweight daemon that acts as a proxy for requests of the
//! Toolstacks" to mount and manage the disk images that back guest VMs
//! ([`ImageStore`]).
//!
//! Requests are GSO-style batched: one ring request covers up to
//! [`MAX_SEGMENTS_BYTES`] of contiguous I/O, matching how real blkif
//! requests carry up to 11 segments.

use std::collections::HashMap;

use crate::hw::DiskModel;
use crate::ring::{RingError, RingHub};
use crate::xenbus::Connection;

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::memory::PageRef;
use xoar_hypervisor::DomId;

/// Bytes per virtual sector.
pub const SECTOR_SIZE: u64 = 512;

/// Maximum bytes one ring request may cover (11 segments × 4 KiB in real
/// blkif; rounded here).
pub const MAX_SEGMENTS_BYTES: u64 = 45_056;

/// Block operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkOp {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
    /// Barrier/flush.
    Flush,
}

/// A frontend block request. Writes may carry the page body as a shared
/// [`PageRef`] handle; the backend stores the handle — never a byte copy.
#[derive(Debug, Clone)]
pub struct BlkRequest {
    /// Frontend-chosen correlation ID.
    pub id: u64,
    /// Operation.
    pub op: BlkOp,
    /// Starting sector.
    pub sector: u64,
    /// Number of sectors.
    pub count: u64,
    /// Shared handle on the written page body (writes only).
    pub payload: Option<PageRef>,
}

impl BlkRequest {
    /// Bytes covered by this request.
    pub fn bytes(&self) -> u64 {
        self.count * SECTOR_SIZE
    }
}

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkStatus {
    /// Success.
    Ok,
    /// Malformed or out-of-range request (backend validation).
    Error,
}

/// A backend block response. Reads of sectors previously written with a
/// page payload return the stored body as a shared handle.
#[derive(Debug, Clone)]
pub struct BlkResponse {
    /// Correlates with [`BlkRequest::id`].
    pub id: u64,
    /// Outcome.
    pub status: BlkStatus,
    /// Shared handle on the read page body (reads of stored pages only).
    pub payload: Option<PageRef>,
}

/// The ring hub type for the block protocol.
pub type BlkRingHub = RingHub<BlkRequest, BlkResponse>;

/// A disk image managed by BlkBack's proxy daemon.
#[derive(Debug, Clone, Default)]
pub struct DiskImage {
    /// Image name (e.g. `guest-a-root.img`).
    pub name: String,
    /// Size in sectors.
    pub sectors: u64,
    /// Whether a guest currently has it mounted.
    pub mounted_by: Option<DomId>,
    /// Copy-on-write readers (clones sharing this golden image).
    pub cow_mounts: u64,
    /// Page bodies written with a payload, keyed by starting sector.
    /// Values are shared handles — storing a page is a refcount move.
    pages: HashMap<u64, PageRef>,
}

/// Names an image's slot in its [`ImageStore`]. A vbd resolves its
/// image's name to this once, at attach, so the request path indexes a
/// slot instead of hashing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ImageId(usize);

/// The image store: BlkBack's proxy daemon for toolstack requests (§5.4).
///
/// "After splitting BlkBack and the Toolstack, the disk images need to be
/// mounted in BlkBack. … In Xoar, BlkBack runs a lightweight daemon that
/// acts as a proxy for requests of the Toolstacks."
#[derive(Debug, Default)]
pub struct ImageStore {
    /// Image name → slot. A tenant's toolstack chooses the names, so
    /// this map keeps the keyed (SipHash) hasher.
    ids: HashMap<String, ImageId>,
    /// The images; a deleted image's slot is `None` until reused.
    slots: Vec<Option<DiskImage>>,
    /// Vacated slots, reused before the slot table grows.
    free: Vec<usize>,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Toolstack proxy request: create a backing image.
    pub fn create_image(&mut self, name: &str, bytes: u64) -> Result<(), String> {
        if self.ids.contains_key(name) {
            return Err(format!("image {name} exists"));
        }
        let image = DiskImage {
            name: name.to_string(),
            sectors: bytes.div_ceil(SECTOR_SIZE),
            mounted_by: None,
            cow_mounts: 0,
            pages: HashMap::new(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(image);
                slot
            }
            None => {
                self.slots.push(Some(image));
                self.slots.len() - 1
            }
        };
        self.ids.insert(name.to_string(), ImageId(slot));
        Ok(())
    }

    /// Toolstack proxy request: delete an image (must be unmounted).
    pub fn delete_image(&mut self, name: &str) -> Result<(), String> {
        let Some(&id) = self.ids.get(name) else {
            return Err(format!("no image {name}"));
        };
        let img = self.image(id);
        if img.mounted_by.is_some() {
            return Err(format!("image {name} is mounted"));
        }
        if img.cow_mounts > 0 {
            return Err(format!("image {name} has CoW readers"));
        }
        self.ids.remove(name);
        self.slots[id.0] = None;
        self.free.push(id.0);
        Ok(())
    }

    /// Resolves an image's name to its slot.
    fn id(&self, name: &str) -> Result<ImageId, String> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| format!("no image {name}"))
    }

    /// The image in slot `id`. Only a mounted image's slot is held
    /// (by its vbd), and a mounted image cannot be deleted.
    fn image(&self, id: ImageId) -> &DiskImage {
        self.slots[id.0].as_ref().expect("a resolved image is live")
    }

    fn image_mut(&mut self, id: ImageId) -> &mut DiskImage {
        self.slots[id.0].as_mut().expect("a resolved image is live")
    }

    /// Mounts an image for a guest (at connection time).
    pub fn mount(&mut self, name: &str, guest: DomId) -> Result<u64, String> {
        let id = self.id(name)?;
        self.mount_exclusive(id, guest)
    }

    /// Unmounts an image.
    pub fn unmount(&mut self, name: &str) {
        if let Some(&id) = self.ids.get(name) {
            self.image_mut(id).mounted_by = None;
        }
    }

    /// Mounts image `id` for `guest` alone, returning its size in sectors.
    fn mount_exclusive(&mut self, id: ImageId, guest: DomId) -> Result<u64, String> {
        let img = self.image_mut(id);
        if let Some(d) = img.mounted_by {
            return Err(format!("image {} already mounted by {d}", img.name));
        }
        img.mounted_by = Some(guest);
        Ok(img.sectors)
    }

    /// Mounts image `id` copy-on-write for a clone: the exclusive mount
    /// (the template's) stays in place and any number of CoW readers
    /// share the golden bytes until their first block write. Returns the
    /// image's size in sectors.
    fn mount_cow(&mut self, id: ImageId) -> u64 {
        let img = self.image_mut(id);
        img.cow_mounts += 1;
        img.sectors
    }

    /// Drops one CoW reader of an image.
    pub fn unmount_cow(&mut self, name: &str) {
        if let Some(&id) = self.ids.get(name) {
            let img = self.image_mut(id);
            img.cow_mounts = img.cow_mounts.saturating_sub(1);
        }
    }

    /// Stores a written page body at `sector` of image `id`. The handle
    /// is moved in; no bytes are copied.
    fn store_page(&mut self, id: ImageId, sector: u64, page: PageRef) {
        self.image_mut(id).pages.insert(sector, page);
    }

    /// Returns the shared handle stored at `sector` of image `id`.
    fn read_page(&self, id: ImageId, sector: u64) -> Option<PageRef> {
        self.image(id).pages.get(&sector).cloned()
    }

    /// Lists image names.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.ids.keys().cloned().collect();
        v.sort();
        v
    }
}

/// How a guest's vbd holds its backing image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mount {
    /// The guest's own image, mounted exclusively and deleted with it.
    Exclusive(String),
    /// A clone's copy-on-write view of its template's image.
    Cow(String),
}

impl Mount {
    /// The backing image's name.
    pub fn image(&self) -> &str {
        match self {
            Mount::Exclusive(image) | Mount::Cow(image) => image,
        }
    }
}

/// One guest's vbd in BlkBack: its image mount, and its connection while
/// linked.
#[derive(Debug)]
struct Attachment {
    guest: DomId,
    /// `None` while the guest is unlinked ([`BlkBack::disconnect`]); the
    /// image stays mounted until [`BlkBack::detach_guest`].
    conn: Option<Connection>,
    mount: Mount,
    /// The mounted image's slot, resolved from its name at attach.
    image: ImageId,
    sectors: u64,
    /// Last sector touched (sequential-access detection).
    last_sector: Option<u64>,
}

/// Statistics from one processing pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlkBackStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests failed validation.
    pub errors: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total simulated service time (ns).
    pub service_ns: u64,
}

impl std::ops::AddAssign for BlkBackStats {
    fn add_assign(&mut self, s: Self) {
        self.completed += s.completed;
        self.errors += s.errors;
        self.bytes += s.bytes;
        self.service_ns += s.service_ns;
    }
}

/// The block driver domain.
#[derive(Debug)]
pub struct BlkBack {
    /// The hosting domain.
    pub dom: DomId,
    /// The physical disk behind this backend.
    pub disk: DiskModel,
    /// The proxy-daemon image store.
    pub images: ImageStore,
    attachments: Vec<Attachment>,
    lifetime: BlkBackStats,
}

impl BlkBack {
    /// Creates a backend for `dom` driving `disk`.
    pub fn new(dom: DomId, disk: DiskModel) -> Self {
        BlkBack {
            dom,
            disk,
            images: ImageStore::new(),
            attachments: Vec::new(),
            lifetime: BlkBackStats::default(),
        }
    }

    /// Attaches a negotiated connection to a new vbd backed by `mount`.
    pub fn attach(&mut self, conn: Connection, mount: Mount) -> Result<(), String> {
        let image = self.images.id(mount.image())?;
        let sectors = match &mount {
            Mount::Exclusive(_) => self.images.mount_exclusive(image, conn.guest)?,
            Mount::Cow(_) => self.images.mount_cow(image),
        };
        self.attachments.push(Attachment {
            guest: conn.guest,
            conn: Some(conn),
            mount,
            image,
            sectors,
            last_sector: None,
        });
        Ok(())
    }

    /// Connects `conn` to the vbd its guest still holds from before a
    /// [`BlkBack::disconnect`]. The vbd keeps the image slot it resolved
    /// at attach: its image stayed mounted, so it cannot have been
    /// deleted.
    pub fn reconnect(&mut self, conn: Connection) -> Result<(), String> {
        let a = self
            .attachments
            .iter_mut()
            .find(|a| a.guest == conn.guest)
            .ok_or_else(|| format!("guest {} holds no vbd", conn.guest))?;
        a.conn = Some(conn);
        Ok(())
    }

    /// Drops `guest`'s connection (ring teardown); its image stays
    /// mounted for a later [`BlkBack::reconnect`].
    pub fn disconnect(&mut self, guest: DomId) -> Option<Connection> {
        self.attachments
            .iter_mut()
            .find(|a| a.guest == guest)?
            .conn
            .take()
    }

    /// Removes `guest`'s vbd and unmounts its image, returning how it
    /// was mounted (device removal).
    pub fn detach_guest(&mut self, guest: DomId) -> Option<Mount> {
        let idx = self.attachments.iter().position(|a| a.guest == guest)?;
        let a = self.attachments.remove(idx);
        match &a.mount {
            Mount::Exclusive(image) => self.images.unmount(image),
            Mount::Cow(image) => self.images.unmount_cow(image),
        }
        Some(a.mount)
    }

    /// How `guest`'s vbd holds its image, if it has one.
    pub fn mount_of(&self, guest: DomId) -> Option<&Mount> {
        self.attachments
            .iter()
            .find(|a| a.guest == guest)
            .map(|a| &a.mount)
    }

    /// Iterates current connections without allocating.
    pub fn conn_iter(&self) -> impl Iterator<Item = &Connection> + '_ {
        self.attachments.iter().filter_map(|a| a.conn.as_ref())
    }

    /// Services every attached ring: pops requests, validates them against
    /// the mounted image bounds, charges disk time, pushes responses. Each
    /// vbd reaches its image through the slot it resolved at attach, so no
    /// request hashes an image name.
    ///
    /// Returns the statistics of this pass; the caller (simulator) decides
    /// how to advance time and when to signal event channels.
    pub fn process(&mut self, hub: &mut BlkRingHub) -> BlkBackStats {
        let mut stats = BlkBackStats::default();
        for a in &mut self.attachments {
            let Some(conn) = a.conn else { continue };
            let ring = match hub.get_mut(conn.ring) {
                Ok(r) => r,
                Err(_) => continue,
            };
            while let Some(req) = ring.pop_request() {
                let end = req.sector.saturating_add(req.count);
                let valid = match req.op {
                    BlkOp::Flush => req.count == 0,
                    _ => req.count > 0 && req.bytes() <= MAX_SEGMENTS_BYTES && end <= a.sectors,
                };
                let mut resp_payload = None;
                let status = if valid {
                    let sequential = a.last_sector == Some(req.sector);
                    let bytes = req.bytes() as usize;
                    let t = match req.op {
                        BlkOp::Read => {
                            self.disk.record_read(bytes);
                            resp_payload = self.images.read_page(a.image, req.sector);
                            self.disk.service_time_ns(bytes, sequential)
                        }
                        BlkOp::Write => {
                            self.disk.record_write(bytes);
                            if let Some(page) = req.payload {
                                // Store the shared handle — the write's
                                // page body crosses the backend by
                                // refcount move, not by copy.
                                self.images.store_page(a.image, req.sector, page);
                            }
                            self.disk.service_time_ns(bytes, sequential)
                        }
                        BlkOp::Flush => self.disk.service_time_ns(0, false),
                    };
                    a.last_sector = Some(end);
                    stats.bytes += bytes as u64;
                    stats.service_ns += t;
                    stats.completed += 1;
                    BlkStatus::Ok
                } else {
                    stats.errors += 1;
                    BlkStatus::Error
                };
                if ring
                    .push_response(BlkResponse {
                        id: req.id,
                        status,
                        payload: resp_payload,
                    })
                    .is_err()
                {
                    break;
                }
            }
        }
        self.lifetime += stats;
        stats
    }

    /// Lifetime statistics.
    pub fn lifetime_stats(&self) -> BlkBackStats {
        self.lifetime
    }
}

/// The guest-side block frontend.
#[derive(Debug)]
pub struct BlkFront {
    /// The negotiated connection.
    pub conn: Connection,
    next_id: u64,
    /// Requests in flight, keyed by the ids this frontend assigns.
    outstanding: FastMap<u64, BlkRequest>,
}

impl BlkFront {
    /// Creates a frontend over a negotiated connection.
    pub fn new(conn: Connection) -> Self {
        BlkFront {
            conn,
            next_id: 1,
            outstanding: FastMap::with_capacity_and_hasher(
                crate::ring::DEFAULT_RING_SLOTS,
                Default::default(),
            ),
        }
    }

    /// Submits a request; returns its correlation ID, or the ring error if
    /// the ring is full (caller backs off) or detached (caller
    /// renegotiates).
    pub fn submit(
        &mut self,
        hub: &mut BlkRingHub,
        op: BlkOp,
        sector: u64,
        count: u64,
    ) -> Result<u64, RingError> {
        self.submit_with(hub, op, sector, count, None)
    }

    /// Submits a write whose page body travels as a shared handle; `count`
    /// is derived from the page size. The backend stores the handle so a
    /// later read returns the same body without any byte copy.
    pub fn submit_write_page(
        &mut self,
        hub: &mut BlkRingHub,
        sector: u64,
        page: PageRef,
    ) -> Result<u64, RingError> {
        let count = (page.len() as u64).div_ceil(SECTOR_SIZE);
        self.submit_with(hub, BlkOp::Write, sector, count, Some(page))
    }

    /// Submits a batch of requests in one ring operation. All-or-nothing:
    /// if the ring lacks room for the whole batch, nothing is queued, no
    /// IDs are consumed, and `RingError::Full` is returned. On success the
    /// returned IDs are contiguous and in batch order.
    pub fn submit_batch(
        &mut self,
        hub: &mut BlkRingHub,
        ops: &[(BlkOp, u64, u64)],
    ) -> Result<Vec<u64>, RingError> {
        let first = self.next_id;
        let request = |i: usize, &(op, sector, count): &(BlkOp, u64, u64)| BlkRequest {
            id: first + i as u64,
            op,
            sector,
            count,
            payload: None,
        };
        hub.get_mut(self.conn.ring)?
            .push_requests(ops.iter().enumerate().map(|(i, o)| request(i, o)))?;
        for (i, o) in ops.iter().enumerate() {
            self.outstanding.insert(first + i as u64, request(i, o));
        }
        self.next_id += ops.len() as u64;
        Ok((first..self.next_id).collect())
    }

    fn submit_with(
        &mut self,
        hub: &mut BlkRingHub,
        op: BlkOp,
        sector: u64,
        count: u64,
        payload: Option<PageRef>,
    ) -> Result<u64, RingError> {
        let id = self.next_id;
        let req = BlkRequest {
            id,
            op,
            sector,
            count,
            payload,
        };
        hub.get_mut(self.conn.ring)?.push_request(req.clone())?;
        self.next_id += 1;
        self.outstanding.insert(id, req);
        Ok(id)
    }

    /// Polls for one completion.
    pub fn poll(&mut self, hub: &mut BlkRingHub) -> Option<BlkResponse> {
        let resp = hub.get_mut(self.conn.ring).ok()?.pop_response()?;
        self.outstanding.remove(&resp.id);
        Some(resp)
    }

    /// Requests submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Replaces the connection after a renegotiation and returns the
    /// requests that must be retransmitted — "virtual machine protocols
    /// … are designed to cache and retransmit failed requests" (§3.3).
    pub fn reconnect(&mut self, conn: Connection) -> Vec<BlkRequest> {
        self.conn = conn;
        let mut retry: Vec<BlkRequest> = self.outstanding.values().cloned().collect();
        retry.sort_by_key(|r| r.id);
        self.outstanding.clear();
        retry
    }

    /// Resubmits requests [`Self::reconnect`] returned, in the order
    /// given and under their original ids, so a caller's correlation
    /// survives the backend's restart. Every request is in flight again;
    /// one the ring has no room for stays unsent until the next
    /// reconnect.
    pub fn retransmit(&mut self, hub: &mut BlkRingHub, retry: Vec<BlkRequest>) {
        for req in retry {
            if let Ok(ring) = hub.get_mut(self.conn.ring) {
                let _ = ring.push_request(req.clone());
            }
            self.outstanding.insert(req.id, req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingId;
    use xoar_hypervisor::grant::GrantRef;
    use xoar_hypervisor::PciAddress;

    fn conn(guest: u32, backend: u32, gref: u32) -> Connection {
        Connection {
            guest: DomId(guest),
            backend: DomId(backend),
            kind: crate::xenbus::DeviceKind::Vbd,
            index: 0,
            ring: RingId {
                granter: DomId(guest),
                gref: GrantRef(gref),
            },
            front_port: 1,
            back_port: 1,
        }
    }

    fn backend_with_guest() -> (BlkBack, BlkFront, BlkRingHub) {
        let mut bb = BlkBack::new(DomId(2), DiskModel::sata_7200(PciAddress::new(0, 3, 0)));
        bb.images
            .create_image("root.img", 15 * 1024 * 1024 * 1024)
            .unwrap();
        let c = conn(5, 2, 0);
        let mut hub = BlkRingHub::new();
        hub.create(c.ring);
        bb.attach(c, Mount::Exclusive("root.img".into())).unwrap();
        (bb, BlkFront::new(c), hub)
    }

    #[test]
    fn read_write_complete_ok() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        let id_r = bf.submit(&mut hub, BlkOp::Read, 0, 8).unwrap();
        let id_w = bf.submit(&mut hub, BlkOp::Write, 8, 8).unwrap();
        let stats = bb.process(&mut hub);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.bytes, 2 * 8 * SECTOR_SIZE);
        assert!(stats.service_ns > 0);
        let r1 = bf.poll(&mut hub).unwrap();
        let r2 = bf.poll(&mut hub).unwrap();
        assert_eq!(r1.id, id_r);
        assert_eq!(r1.status, BlkStatus::Ok);
        assert_eq!(r2.id, id_w);
        assert_eq!(bf.outstanding(), 0);
    }

    #[test]
    fn write_page_read_back_by_handle() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        let page = PageRef::new(&[0xabu8; 4096]);
        bf.submit_write_page(&mut hub, 64, page.clone()).unwrap();
        let stats = bb.process(&mut hub);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.bytes, 4096);
        assert!(bf.poll(&mut hub).unwrap().payload.is_none());
        // The stored body is the same allocation; a read hands it back.
        bf.submit(&mut hub, BlkOp::Read, 64, 8).unwrap();
        bb.process(&mut hub);
        let resp = bf.poll(&mut hub).unwrap();
        assert_eq!(resp.status, BlkStatus::Ok);
        assert!(
            PageRef::ptr_eq(&page, resp.payload.as_ref().unwrap()),
            "read returns the written page body by shared handle"
        );
        // Reads of never-written sectors carry no payload.
        bf.submit(&mut hub, BlkOp::Read, 0, 8).unwrap();
        bb.process(&mut hub);
        assert!(bf.poll(&mut hub).unwrap().payload.is_none());
    }

    #[test]
    fn out_of_range_request_rejected() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        // Beyond the 15 GB image.
        let huge_sector = 16 * 1024 * 1024 * 1024 / SECTOR_SIZE;
        bf.submit(&mut hub, BlkOp::Read, huge_sector, 8).unwrap();
        let stats = bb.process(&mut hub);
        assert_eq!(stats.errors, 1);
        assert_eq!(bf.poll(&mut hub).unwrap().status, BlkStatus::Error);
    }

    #[test]
    fn oversized_request_rejected() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        let too_many = MAX_SEGMENTS_BYTES / SECTOR_SIZE + 1;
        bf.submit(&mut hub, BlkOp::Read, 0, too_many).unwrap();
        let stats = bb.process(&mut hub);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn zero_count_read_rejected_flush_ok() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        bf.submit(&mut hub, BlkOp::Read, 0, 0).unwrap();
        bf.submit(&mut hub, BlkOp::Flush, 0, 0).unwrap();
        let stats = bb.process(&mut hub);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn sequential_detection_reduces_service_time() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        // First request random, second sequential continuation.
        bf.submit(&mut hub, BlkOp::Read, 100, 8).unwrap();
        let first = bb.process(&mut hub).service_ns;
        bf.submit(&mut hub, BlkOp::Read, 108, 8).unwrap();
        let second = bb.process(&mut hub).service_ns;
        assert!(second < first, "sequential continuation skips the seek");
    }

    #[test]
    fn submit_batch_matches_serial_submits() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        let ids = bf
            .submit_batch(
                &mut hub,
                &[
                    (BlkOp::Read, 0, 8),
                    (BlkOp::Write, 8, 8),
                    (BlkOp::Flush, 0, 0),
                ],
            )
            .unwrap();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(bf.outstanding(), 3);
        // A batch the ring cannot hold leaves state untouched.
        let big = vec![(BlkOp::Read, 0, 8); crate::ring::DEFAULT_RING_SLOTS];
        assert_eq!(bf.submit_batch(&mut hub, &big), Err(RingError::Full));
        assert_eq!(bf.outstanding(), 3);
        let stats = bb.process(&mut hub);
        assert_eq!(stats.completed, 3);
        for want in ids {
            assert_eq!(bf.poll(&mut hub).unwrap().id, want);
        }
        assert_eq!(bf.outstanding(), 0);
        // IDs continue from where the successful batch left off.
        assert_eq!(bf.submit(&mut hub, BlkOp::Read, 0, 8).unwrap(), 4);
    }

    #[test]
    fn image_store_lifecycle() {
        let mut s = ImageStore::new();
        s.create_image("a.img", 1024 * 1024).unwrap();
        assert!(s.create_image("a.img", 1).is_err());
        let sectors = s.mount("a.img", DomId(5)).unwrap();
        assert_eq!(sectors, 2048);
        assert!(s.mount("a.img", DomId(6)).is_err(), "no double mount");
        assert!(s.delete_image("a.img").is_err(), "mounted images protected");
        s.unmount("a.img");
        s.delete_image("a.img").unwrap();
        assert!(s.list().is_empty());
    }

    #[test]
    fn detach_unmounts() {
        let (mut bb, bf, _hub) = backend_with_guest();
        assert!(bb.detach_guest(bf.conn.guest).is_some());
        assert!(bb.detach_guest(bf.conn.guest).is_none());
        // Image can be re-mounted now.
        bb.images.mount("root.img", DomId(9)).unwrap();
    }

    #[test]
    fn reconnect_returns_outstanding_for_retry() {
        let (mut bb, mut bf, mut hub) = backend_with_guest();
        bf.submit(&mut hub, BlkOp::Read, 0, 8).unwrap();
        bf.submit(&mut hub, BlkOp::Write, 64, 8).unwrap();
        // Backend dies before answering.
        hub.get_mut(bf.conn.ring).unwrap().detach();
        let c2 = conn(5, 2, 1);
        hub.create(c2.ring);
        let retry = bf.reconnect(c2);
        assert_eq!(retry.len(), 2);
        assert_eq!(retry[0].sector, 0);
        assert_eq!(retry[1].sector, 64);
        // Re-attach on the backend side and replay.
        bb.disconnect(DomId(5));
        bb.reconnect(c2).unwrap();
        for r in retry {
            bf.submit(&mut hub, r.op, r.sector, r.count).unwrap();
        }
        assert_eq!(bb.process(&mut hub).completed, 2);
    }
}
