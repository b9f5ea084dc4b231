//! Tenant identity.
//!
//! A [`TenantId`] names one hosted warehouse inside a multi-tenant serving
//! process.  The id is an interned string (cheap to clone, hash and compare)
//! plus a stable 64-bit fingerprint that higher layers *fold* into
//! snapshot-derived cache fingerprints, so pages belonging to different
//! tenants can share one LRU without any possibility of cross-tenant
//! leakage: two cache keys collide only if both their snapshot fingerprint
//! *and* their folded tenant fingerprint collide.
//!
//! The **default tenant** is special: folding it is the identity function,
//! so a single-tenant service's cache keys are its snapshot fingerprints.
//! (No file written before tenancy is readable: the journal and page-cache
//! readers accept their current format versions only, `SODAJNL3` and
//! `SODACSH5` — the keys of the warm pages, recomputed on recover.)

use std::fmt;
use std::sync::Arc;

use soda_relation::fnv1a;

/// The name of the implicit default tenant.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// The identity of one hosted warehouse.
///
/// Cheap to clone (`Arc<str>` inside); ordering and hashing follow the
/// tenant name.  `TenantId::default()` names the implicit tenant every
/// single-tenant service serves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Creates a tenant id from a name.  Empty or all-whitespace names are
    /// normalized to the default tenant.
    pub fn new(name: impl AsRef<str>) -> Self {
        let trimmed = name.as_ref().trim();
        if trimmed.is_empty() {
            Self::default()
        } else {
            TenantId(Arc::from(trimmed))
        }
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the implicit default tenant.
    pub fn is_default(&self) -> bool {
        &*self.0 == DEFAULT_TENANT
    }

    /// A stable 64-bit fingerprint of the tenant name (FNV-1a over the
    /// UTF-8 bytes).  The default tenant's fingerprint is, by convention,
    /// `0` — see [`TenantId::fold`].
    pub fn fingerprint(&self) -> u64 {
        if self.is_default() {
            return 0;
        }
        fnv1a(0, self.0.as_bytes())
    }

    /// Folds this tenant into a snapshot-derived fingerprint.
    ///
    /// For the default tenant this is the **identity**: a single-tenant
    /// service's cache keys (and the fingerprint stamped into its persisted
    /// cache file) are its snapshot fingerprints.  For named tenants the
    /// fold is an FNV-style mix of the tenant fingerprint into the input, so
    /// keys from different tenants land in disjoint fingerprint spaces.
    pub fn fold(&self, fingerprint: u64) -> u64 {
        match self.fingerprint() {
            0 => fingerprint,
            tenant => fnv1a(tenant, &fingerprint.to_le_bytes()),
        }
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId(Arc::from(DEFAULT_TENANT))
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_folds_as_identity() {
        let tenant = TenantId::default();
        assert!(tenant.is_default());
        assert_eq!(tenant.fingerprint(), 0);
        for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(tenant.fold(fp), fp);
        }
    }

    #[test]
    fn empty_names_normalize_to_default() {
        assert!(TenantId::new("").is_default());
        assert!(TenantId::new("   ").is_default());
        assert_eq!(TenantId::new("default"), TenantId::default());
        assert_eq!(TenantId::new("  acme  ").as_str(), "acme");
    }

    #[test]
    fn named_tenants_perturb_every_fingerprint() {
        let acme = TenantId::new("acme");
        let globex = TenantId::new("globex");
        assert_ne!(acme.fingerprint(), 0);
        assert_ne!(acme.fingerprint(), globex.fingerprint());
        for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_ne!(acme.fold(fp), fp, "named fold must not be identity");
            assert_ne!(acme.fold(fp), globex.fold(fp), "tenants must not collide");
        }
    }

    #[test]
    fn fold_is_deterministic_and_injective_per_tenant() {
        let tenant = TenantId::new("acme");
        assert_eq!(tenant.fold(42), tenant.fold(42));
        // Different inputs keep distinct outputs (FNV over 8 bytes mixes
        // every input bit into the result).
        assert_ne!(tenant.fold(1), tenant.fold(2));
    }

    #[test]
    fn display_and_from_round_trip() {
        let tenant = TenantId::from("acme");
        assert_eq!(tenant.to_string(), "acme");
        assert_eq!(TenantId::from(String::from("acme")), tenant);
    }
}
