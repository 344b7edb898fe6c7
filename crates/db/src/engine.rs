//! The transactional engine: pages, buffer pool, journal, transactions.

use std::sync::Arc;

use tiera_support::sync::{rank, Mutex};

use tiera_core::error::TieraError;
use tiera_fs::TieraFs;
use tiera_sim::{SerialResource, SimDuration, SimTime};

use crate::pool::{LruPages, OsPageCache};

/// Page size: 4 KB, the OS page size the paper's FUSE driver chunks at.
pub const PAGE_SIZE: usize = 4096;

/// Database errors.
#[derive(Debug)]
pub enum DbError {
    /// Row id out of range.
    NoSuchRow(u64),
    /// Underlying storage failure.
    Storage(TieraError),
    /// The engine was asked for an unsupported operation.
    Unsupported(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NoSuchRow(id) => write!(f, "no such row: {id}"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TieraError> for DbError {
    fn from(e: TieraError) -> Self {
        DbError::Storage(e)
    }
}

/// One operation inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point select of a row.
    Select(u64),
    /// Update of a row (the new content is synthesized from the row id).
    Update(u64),
}

/// What a committed transaction cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnReceipt {
    /// Total latency experienced by the client.
    pub latency: SimDuration,
    /// Buffer-pool / OS-cache hits during the transaction.
    pub cache_hits: u32,
    /// Page reads that went to storage.
    pub storage_reads: u32,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Number of rows in the table.
    pub rows: u64,
    /// Fixed row width in bytes (sysbench's table is ~200 B/row).
    pub row_size: usize,
    /// Buffer-pool capacity in pages (MySQL's own caches).
    pub buffer_pool_pages: usize,
    /// OS page-cache capacity in pages; `0` disables the model (Tiera
    /// deployments: FUSE bypasses the kernel cache).
    pub os_cache_pages: usize,
    /// CPU cost charged per statement (parse/plan/execute). Statements
    /// serialize on the database's CPU ([`SerialResource`]): this is the
    /// MySQL-side throughput ceiling that caps the fast deployments in the
    /// paper's Figures 7–8.
    pub cpu_per_op: SimDuration,
    /// CPU multiplier for update statements (row locking, index
    /// maintenance, binlog work make writes several times costlier than
    /// point selects).
    pub cpu_write_factor: f64,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            rows: 100_000,
            row_size: 200,
            buffer_pool_pages: 2048, // 8 MB
            os_cache_pages: 0,
            cpu_per_op: SimDuration::from_micros(500),
            cpu_write_factor: 2.0,
        }
    }
}

impl DbConfig {
    /// Rows per 4 KB page.
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE / self.row_size) as u64
    }

    /// Total data pages.
    pub fn data_pages(&self) -> u64 {
        self.rows.div_ceil(self.rows_per_page())
    }

    /// Total data bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_pages() * PAGE_SIZE as u64
    }
}

struct Shared {
    pool: LruPages<PageBuf>,
    os_cache: Option<OsPageCache>,
    journal_len: u64,
    /// The most recent journal record (the redo log's tail block).
    journal_tail: Vec<u8>,
    txn_counter: u64,
}

struct PageBuf {
    data: Vec<u8>,
}

/// A page-based transactional storage engine over [`TieraFs`].
pub struct MiniDb {
    fs: Arc<TieraFs>,
    cfg: DbConfig,
    table_path: String,
    shared: Mutex<Shared>,
    /// The database's (single) CPU: statements serialize here.
    cpu: SerialResource,
}

impl MiniDb {
    /// Creates a database on `fs`, bulk-loading the table.
    ///
    /// Bulk load happens at `now` in virtual time; the charged load latency
    /// is returned so setup can be excluded from measurements.
    pub fn create(
        fs: Arc<TieraFs>,
        cfg: DbConfig,
        now: SimTime,
    ) -> Result<(Self, SimDuration), DbError> {
        let table_path = "/minidb/table".to_string();
        fs.create(&table_path, now)?;
        let mut latency = SimDuration::ZERO;
        let mut t = now;
        let pages = cfg.data_pages();
        let mut page = vec![0u8; PAGE_SIZE];
        for p in 0..pages {
            // Deterministic page content derived from row ids.
            for (i, b) in page.iter_mut().enumerate() {
                *b = ((p as usize * 31 + i * 7) % 251) as u8;
            }
            let r = fs.write(&table_path, p * PAGE_SIZE as u64, &page, t)?;
            t += r.latency;
            latency += r.latency;
        }
        let os_cache = if cfg.os_cache_pages > 0 {
            // Pre-fill to steady state: on a long-running instance the page
            // cache is always full; with (near-)uniform cold traffic the
            // steady-state hit probability depends on the cache's *size*,
            // not on which pages currently occupy it, so filling with the
            // table prefix is equivalent and saves experiments a very long
            // warm-up phase.
            let mut cache = OsPageCache::new(cfg.os_cache_pages);
            let prefill = (cfg.os_cache_pages as u64).min(pages);
            let mut buf = vec![0u8; PAGE_SIZE];
            for p in 0..prefill {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = ((p as usize * 31 + i * 7) % 251) as u8;
                }
                cache.fill(p, buf.clone());
            }
            Some(cache)
        } else {
            None
        };
        let pool = LruPages::new(cfg.buffer_pool_pages);
        Ok((
            Self {
                fs,
                cfg,
                table_path,
                shared: Mutex::named(
                    "db.shared",
                    rank::DB_SHARED,
                    Shared {
                        pool,
                        os_cache,
                        journal_len: 0,
                        journal_tail: Vec::with_capacity(64),
                        txn_counter: 0,
                    },
                ),
                cpu: SerialResource::new(),
            },
            latency,
        ))
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The filesystem the engine stores through.
    pub fn fs(&self) -> &Arc<TieraFs> {
        &self.fs
    }

    fn page_of_row(&self, row: u64) -> Result<u64, DbError> {
        if row >= self.cfg.rows {
            return Err(DbError::NoSuchRow(row));
        }
        Ok(row / self.cfg.rows_per_page())
    }

    /// Reads a page through OS cache + buffer pool, charging latency.
    ///
    /// Returns `(cache_hit, storage_read, latency)`.
    fn fault_page(
        &self,
        shared: &mut Shared,
        page: u64,
        t: SimTime,
    ) -> Result<(bool, bool, SimDuration), DbError> {
        if shared.pool.get(page).is_some() {
            // Buffer-pool hit: pure CPU, charged by the caller.
            return Ok((true, false, SimDuration::ZERO));
        }
        // OS page-cache model (only for the non-Tiera deployment). A hit
        // serves the bytes from kernel memory: no storage-tier access.
        if let Some(osc) = shared.os_cache.as_mut() {
            if let Some((data, hit)) = osc.read(page) {
                shared.pool.insert(page, PageBuf { data });
                return Ok((true, false, hit));
            }
        }
        // Storage read through the Tiera instance / fs.
        let r = self.fs.read(&self.table_path, page * PAGE_SIZE as u64, PAGE_SIZE, t)?;
        if let Some(osc) = shared.os_cache.as_mut() {
            osc.fill(page, r.value.clone());
        }
        shared.pool.insert(page, PageBuf { data: r.value });
        Ok((false, true, r.latency))
    }

    /// Executes a transaction: all `ops`, then a journaled commit.
    pub fn run_transaction(&self, ops: &[Op], now: SimTime) -> Result<TxnReceipt, DbError> {
        let mut latency = SimDuration::ZERO;
        let mut t = now;
        let mut cache_hits = 0u32;
        let mut storage_reads = 0u32;
        let mut dirty_pages: Vec<u64> = Vec::new();

        for op in ops {
            // Parse/plan/execute on the shared DB CPU (FIFO in virtual
            // time): with many client threads this is the throughput
            // ceiling of cache-served deployments.
            let cpu_cost = match op {
                Op::Select(_) => self.cfg.cpu_per_op,
                Op::Update(_) => self.cfg.cpu_per_op.mul_f64(self.cfg.cpu_write_factor),
            };
            let grant = self.cpu.acquire(t, cpu_cost);
            let cpu_wait = grant.latency_from(t);
            latency += cpu_wait;
            t += cpu_wait;
            match op {
                Op::Select(row) => {
                    let page = self.page_of_row(*row)?;
                    let mut shared = self.shared.lock();
                    let (hit, storage, d) = self.fault_page(&mut shared, page, t)?;
                    drop(shared);
                    if hit {
                        cache_hits += 1;
                    }
                    if storage {
                        storage_reads += 1;
                    }
                    latency += d;
                    t += d;
                }
                Op::Update(row) => {
                    let page = self.page_of_row(*row)?;
                    let mut shared = self.shared.lock();
                    let (hit, storage, d) = self.fault_page(&mut shared, page, t)?;
                    if hit {
                        cache_hits += 1;
                    }
                    if storage {
                        storage_reads += 1;
                    }
                    // Mutate the row in the pooled page.
                    let rp = self.cfg.rows_per_page();
                    let offset = ((row % rp) as usize) * self.cfg.row_size;
                    if let Some(buf) = shared.pool.get_mut(page) {
                        let stamp = (row % 251) as u8;
                        let end = (offset + self.cfg.row_size).min(buf.data.len());
                        for b in &mut buf.data[offset..end] {
                            *b = b.wrapping_add(stamp) ^ 0x5A;
                        }
                    }
                    drop(shared);
                    latency += d;
                    t += d;
                    if !dirty_pages.contains(&page) {
                        dirty_pages.push(page);
                    }
                }
            }
        }

        // Commit: write dirty pages through, then append the journal record
        // (every transaction journals — the paper's read-only observation).
        for page in &dirty_pages {
            let data = {
                let mut shared = self.shared.lock();
                let data = shared
                    .pool
                    .get(*page)
                    .map(|b| b.data.clone())
                    .unwrap_or_else(|| vec![0u8; PAGE_SIZE]);
                if let Some(osc) = shared.os_cache.as_mut() {
                    osc.write(*page, data.clone());
                }
                data
            };
            let r = self.fs.write(&self.table_path, page * PAGE_SIZE as u64, &data, t)?;
            latency += r.latency;
            t += r.latency;
        }
        let commit_lat = self.append_journal(dirty_pages.len() as u32, t)?;
        latency += commit_lat;

        Ok(TxnReceipt { latency, cache_hits, storage_reads })
    }

    /// Appends a commit record to the redo journal: one small sequential
    /// PUT per commit (InnoDB's redo write). Block tiers absorb these on
    /// their write-cache fast path; a write-through policy still replicates
    /// them to every configured tier.
    fn append_journal(&self, dirty: u32, t: SimTime) -> Result<SimDuration, DbError> {
        let record = {
            let mut shared = self.shared.lock();
            shared.txn_counter += 1;
            let txn_id = shared.txn_counter;
            let mut record = [0u8; 64];
            record[..8].copy_from_slice(&txn_id.to_le_bytes());
            record[8..12].copy_from_slice(&dirty.to_le_bytes());
            record[12..20].copy_from_slice(&t.as_nanos().to_le_bytes());
            shared.journal_tail = record.to_vec();
            shared.journal_len += record.len() as u64;
            record
        };
        // The redo-log tag is an application hint (paper §2.1): policies
        // can route the journal to a fast tier even when data pages go to
        // slower, cheaper storage.
        let receipt = self
            .fs
            .instance()
            .put_with(
                "/minidb/journal-tail",
                record.to_vec(),
                tiera_core::instance::PutOptions {
                    tags: vec![tiera_core::object::Tag::new("redo-log")],
                },
                t,
            )
            .map_err(DbError::Storage)?;
        Ok(receipt.latency)
    }

    /// Reads one row (outside any transaction, e.g. for verification).
    pub fn read_row(&self, row: u64, now: SimTime) -> Result<(Vec<u8>, SimDuration), DbError> {
        let page = self.page_of_row(row)?;
        let mut shared = self.shared.lock();
        let (_, _, d) = self.fault_page(&mut shared, page, now)?;
        let rp = self.cfg.rows_per_page();
        let offset = ((row % rp) as usize) * self.cfg.row_size;
        let data = shared
            .pool
            .get(page)
            .map(|b| b.data[offset..offset + self.cfg.row_size].to_vec())
            .unwrap_or_default();
        Ok((data, d))
    }

    /// `(buffer-pool pages resident, journal bytes)` for diagnostics.
    pub fn cache_stats(&self) -> (usize, u64) {
        let shared = self.shared.lock();
        (shared.pool.len(), shared.journal_len)
    }
}

impl std::fmt::Debug for MiniDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniDb")
            .field("rows", &self.cfg.rows)
            .field("pages", &self.cfg.data_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    const T0: SimTime = SimTime::ZERO;

    fn small_cfg() -> DbConfig {
        DbConfig {
            rows: 1000,
            row_size: 200,
            buffer_pool_pages: 8,
            os_cache_pages: 0,
            cpu_per_op: SimDuration::from_micros(80),
            cpu_write_factor: 2.0,
        }
    }

    fn mem_fs() -> Arc<TieraFs> {
        let inst = InstanceBuilder::new("db", SimEnv::new(11))
            .tier(MemTier::with_capacity("t1", 256 << 20))
            .build()
            .unwrap();
        Arc::new(TieraFs::new(inst))
    }

    #[test]
    fn create_and_point_reads() {
        let (db, _) = MiniDb::create(mem_fs(), small_cfg(), T0).unwrap();
        let (row_a, _) = db.read_row(0, T0).unwrap();
        let (row_b, _) = db.read_row(999, T0).unwrap();
        assert_eq!(row_a.len(), 200);
        assert_ne!(row_a, row_b, "different rows have different content");
        assert!(matches!(db.read_row(1000, T0), Err(DbError::NoSuchRow(_))));
    }

    #[test]
    fn transactions_journal_even_when_read_only() {
        let (db, _) = MiniDb::create(mem_fs(), small_cfg(), T0).unwrap();
        let (_, j0) = db.cache_stats();
        db.run_transaction(&[Op::Select(1), Op::Select(2)], T0).unwrap();
        let (_, j1) = db.cache_stats();
        assert!(j1 > j0, "read-only txn appended to the journal");
    }

    #[test]
    fn updates_are_durable_through_storage() {
        let fs = mem_fs();
        let (db, _) = MiniDb::create(fs.clone(), small_cfg(), T0).unwrap();
        let (before, _) = db.read_row(5, T0).unwrap();
        db.run_transaction(&[Op::Update(5)], T0).unwrap();
        let (after, _) = db.read_row(5, T0).unwrap();
        assert_ne!(before, after, "update changed the row");
        // The page was written through: reading the raw chunk shows it.
        let page_bytes = fs.read("/minidb/table", 0, PAGE_SIZE, T0).unwrap().value;
        let row5 = &page_bytes[5 * 200..6 * 200];
        assert_eq!(row5, &after[..], "storage reflects the committed update");
    }

    #[test]
    fn buffer_pool_hits_avoid_storage() {
        let (db, _) = MiniDb::create(mem_fs(), small_cfg(), T0).unwrap();
        let r1 = db.run_transaction(&[Op::Select(0)], T0).unwrap();
        assert_eq!(r1.storage_reads, 1, "cold read faults the page");
        let r2 = db.run_transaction(&[Op::Select(0)], T0).unwrap();
        assert_eq!(r2.storage_reads, 0);
        assert_eq!(r2.cache_hits, 1, "hot read served from the pool");
    }

    #[test]
    fn small_pool_thrashes() {
        // 8-page pool over a 50-page table with a scan → every access misses.
        let (db, _) = MiniDb::create(mem_fs(), small_cfg(), T0).unwrap();
        let pages = small_cfg().data_pages();
        assert!(pages > 16);
        let rp = small_cfg().rows_per_page();
        let mut misses = 0;
        for sweep in 0..2 {
            for p in 0..pages {
                let r = db.run_transaction(&[Op::Select(p * rp)], T0).unwrap();
                if sweep == 1 {
                    misses += r.storage_reads;
                }
            }
        }
        assert!(misses as u64 >= pages - 8, "second sweep still misses");
    }

    #[test]
    fn os_cache_reduces_storage_reads() {
        let mut cfg = small_cfg();
        cfg.buffer_pool_pages = 4; // tiny pool
        cfg.os_cache_pages = 1024; // big OS cache
        let (db, _) = MiniDb::create(mem_fs(), cfg.clone(), T0).unwrap();
        let rp = cfg.rows_per_page();
        // Touch every page once to warm the OS cache.
        for p in 0..cfg.data_pages() {
            db.run_transaction(&[Op::Select(p * rp)], T0).unwrap();
        }
        // Second sweep: pool misses but OS cache hits → no storage reads.
        let mut storage = 0;
        for p in 0..cfg.data_pages() {
            let r = db.run_transaction(&[Op::Select(p * rp)], T0).unwrap();
            storage += r.storage_reads;
        }
        assert_eq!(storage, 0, "OS cache absorbed the pool misses");
    }
}
