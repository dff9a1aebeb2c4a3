//! The campaign cell body under its historical name.
//!
//! Cells stream the generator straight into the machine one op at a
//! time. [`run_overlapped`] exists only because the standalone
//! benchmark package calls it by this path; it is exactly
//! [`run_metered`].
//!
//! [`run_metered`]: super::run_metered

use aos_workloads::WorkloadProfile;

use super::campaign::CellOutput;
use super::SystemUnderTest;

/// One metered campaign cell: [`super::run_metered`], kept under the
/// name external callers already use.
pub fn run_overlapped(profile: &WorkloadProfile, sut: &SystemUnderTest) -> CellOutput {
    super::run_metered(profile, sut)
}
