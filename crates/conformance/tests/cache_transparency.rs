//! One proxy, two passes: the kernel tables a `Proxy` builds when it is
//! created serve every pass it runs, so a second staged pass on the same
//! proxy is **bit-identical** to the first at every pipeline stage, on
//! every back-end. Tolerance-based comparison would hide exactly the
//! kind of drift this test exists to forbid.

use idg::{Backend, Proxy};
use idg_conformance::standard_cases;

#[test]
fn second_staged_pass_is_bit_identical_to_the_first() {
    let case = standard_cases()
        .expect("standard cases build")
        .into_iter()
        .next()
        .expect("a standard case");
    let ds = case.dataset();
    for backend in Backend::all() {
        let proxy = Proxy::new(backend, case.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let pass = || {
            let grid = proxy
                .grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let degrid = proxy
                .degrid_stages(&plan, &grid.grid, &ds.uvw, &ds.aterms)
                .unwrap();
            (grid, degrid)
        };
        let (first_grid, first_degrid) = pass();
        let (second_grid, second_degrid) = pass();

        let tag = format!("{backend:?}/{}", case.name);
        assert_eq!(
            first_grid.gridder_subgrids.as_slice(),
            second_grid.gridder_subgrids.as_slice(),
            "{tag}: gridder subgrids"
        );
        assert_eq!(
            first_grid.fft_subgrids.as_slice(),
            second_grid.fft_subgrids.as_slice(),
            "{tag}: post-FFT subgrids"
        );
        assert_eq!(
            first_grid.grid.as_slice(),
            second_grid.grid.as_slice(),
            "{tag}: grid"
        );
        assert_eq!(
            first_degrid.split_subgrids.as_slice(),
            second_degrid.split_subgrids.as_slice(),
            "{tag}: splitter subgrids"
        );
        assert_eq!(
            first_degrid.ifft_subgrids.as_slice(),
            second_degrid.ifft_subgrids.as_slice(),
            "{tag}: post-iFFT subgrids"
        );
        assert_eq!(
            first_degrid.visibilities, second_degrid.visibilities,
            "{tag}: predicted visibilities"
        );
    }
}
