"""The paper-run driver: every table and figure from one dataset.

:class:`PaperRun` wires the analysis layer together and renders each of
the paper's tables and figures as text — the single entry point used by
the benchmark harness, the CLI (``python -m repro paper``) and the
EXPERIMENTS.md record.
"""

from __future__ import annotations

from functools import cached_property

from ..analysis.bands import (
    BandBoundaries,
    CrownReport,
    RootReport,
    TrunkReport,
    crown_report,
    derive_bands,
    root_report,
    trunk_report,
)
from ..analysis.census import CommunityCensus
from ..analysis.context import AnalysisContext
from ..analysis.density_odf import DensityOdfAnalysis
from ..analysis.geo import GeoAnalysis
from ..analysis.ixp_share import IXPShareAnalysis
from ..analysis.overlap import OverlapAnalysis
from ..analysis.sizes import SizeAnalysis
from ..topology.dataset import ASDataset
from .figures import ascii_scatter, ascii_table

__all__ = ["PaperRun"]


class PaperRun:
    """All Chapter 2 and Chapter 4 artefacts for one dataset."""

    def __init__(
        self,
        dataset: ASDataset | AnalysisContext,
        *,
        workers: int = 1,
        kernel: str = "blocks",
        shards: int | str = "auto",
        analysis_engine: str = "bitset",
        cache=None,
        checkpoint=None,
        resume: bool = False,
        runner=None,
        fault_plan=None,
        tracer=None,
        metrics=None,
    ) -> None:
        """Run LP-CPM on ``dataset`` with the keywords, or — given a
        finished :class:`AnalysisContext` — reuse its run and ignore them."""
        if isinstance(dataset, AnalysisContext):
            self.context = dataset
        else:
            self.context = AnalysisContext.from_dataset(
                dataset,
                workers=workers,
                kernel=kernel,
                shards=shards,
                cache=cache,
                checkpoint=checkpoint,
                resume=resume,
                runner=runner,
                fault_plan=fault_plan,
                analysis_engine=analysis_engine,
                tracer=tracer,
                metrics=metrics,
            )
        self.dataset = self.context.dataset

    # ------------------------------------------------------------------
    # Lazy analyses
    # ------------------------------------------------------------------
    @cached_property
    def census(self) -> CommunityCensus:
        return CommunityCensus(self.context.hierarchy)

    @cached_property
    def sizes(self) -> SizeAnalysis:
        return SizeAnalysis(self.context)

    @cached_property
    def density_odf(self) -> DensityOdfAnalysis:
        return DensityOdfAnalysis(self.context)

    @cached_property
    def overlap(self) -> OverlapAnalysis:
        return OverlapAnalysis(self.context)

    @cached_property
    def ixp_share(self) -> IXPShareAnalysis:
        return IXPShareAnalysis(self.context)

    @cached_property
    def geo(self) -> GeoAnalysis:
        return GeoAnalysis(self.context)

    @cached_property
    def bands(self) -> BandBoundaries:
        return derive_bands(self.ixp_share)

    @cached_property
    def crown(self) -> CrownReport:
        return crown_report(self.context, self.ixp_share, self.bands)

    @cached_property
    def trunk(self) -> TrunkReport:
        return trunk_report(self.context, self.ixp_share, self.bands)

    @cached_property
    def root(self) -> RootReport:
        return root_report(self.context, self.ixp_share, self.bands, self.geo)

    # ------------------------------------------------------------------
    # Tables (Chapter 2)
    # ------------------------------------------------------------------
    def table_2_1(self) -> str:
        """Render Table 2.1 (IXP tagging counts)."""
        summary = self.dataset.tag_summary().ixp
        return ascii_table(
            ["on-IXP", "not-on-IXP"],
            [[summary.on_ixp, summary.not_on_ixp]],
            title="Table 2.1: Summary of IXP tagging results",
        )

    def table_2_2(self) -> str:
        """Render Table 2.2 (geographic tagging counts)."""
        summary = self.dataset.tag_summary().geo
        return ascii_table(
            ["National", "Continental", "Worldwide", "Unknown"],
            [[summary.national, summary.continental, summary.worldwide, summary.unknown]],
            title="Table 2.2: Summary of geographic tagging results",
        )

    # ------------------------------------------------------------------
    # Figures (Chapter 4)
    # ------------------------------------------------------------------
    def figure_4_1(self) -> str:
        """Render Figure 4.1 (community count vs k) plus its headline."""
        series = [(float(k), float(n)) for k, n in self.census.series()]
        chart = ascii_scatter(
            {"communities": series},
            title="Figure 4.1: Number of k-clique communities vs k",
            log_y=True,
            y_label="# communities",
        )
        footer = (
            f"total communities: {self.census.total_communities}; "
            f"unique orders: {self.census.unique_orders()}"
        )
        return f"{chart}\n{footer}"

    def figure_4_2(self, *, max_children: int = 6) -> str:
        """Render Figure 4.2 (the community tree) as annotated ASCII."""
        tree = self.context.tree
        header = (
            "Figure 4.2: k-clique community tree "
            f"(root<=k{self.bands.root_max}, trunk, crown>=k{self.bands.crown_min}; "
            "* marks main communities)"
        )
        return f"{header}\n{tree.to_ascii(max_children=max_children)}"

    def figure_4_3(self) -> str:
        """Render Figure 4.3 (community size vs k)."""
        main = [(float(k), float(s)) for k, s in self.sizes.main_series()]
        parallel = [(float(k), float(s)) for k, s in self.sizes.parallel_points()]
        return ascii_scatter(
            {"main": main, "parallel": parallel},
            title="Figure 4.3: Size of k-clique communities vs k",
            log_y=True,
            y_label="community size",
        )

    def figure_4_4a(self) -> str:
        """Render Figure 4.4(a) (link density vs k)."""
        main = [(float(k), v) for k, v in self.density_odf.main_density_series()]
        parallel = [(float(k), v) for k, v in self.density_odf.parallel_density_points()]
        return ascii_scatter(
            {"main": main, "parallel": parallel},
            title="Figure 4.4(a): Link density vs k",
            y_label="link density",
        )

    def figure_4_4b(self) -> str:
        """Render Figure 4.4(b) (average ODF vs k)."""
        main = [(float(k), v) for k, v in self.density_odf.main_odf_series()]
        parallel = [(float(k), v) for k, v in self.density_odf.parallel_odf_points()]
        return ascii_scatter(
            {"main": main, "parallel": parallel},
            title="Figure 4.4(b): Average ODF vs k",
            y_label="average ODF",
        )

    # ------------------------------------------------------------------
    # Section 4 text blocks
    # ------------------------------------------------------------------
    def overlap_summary(self) -> str:
        """Render the Section 4 overlap-fraction table and headline stats."""
        rows = [
            [
                row.k,
                row.n_parallel,
                row.mean_parallel_main_fraction,
                row.zero_overlap_parallels,
                row.mean_parallel_parallel_fraction
                if row.mean_parallel_parallel_fraction is not None
                else "-",
            ]
            for row in self.overlap.rows
        ]
        table = ascii_table(
            ["k", "#parallel", "mean frac vs main", "zero-overlap", "mean frac par-par"],
            rows,
            title="Section 4: overlap fractions at equal k",
        )
        footer = (
            f"parallel<->main over k: mean={self.overlap.parallel_main_mean_over_k():.3f} "
            f"var={self.overlap.parallel_main_variance_over_k():.3f} "
            f"min={self.overlap.parallel_main_min_over_k():.3f}; "
            f"zero-overlap exceptions: {self.overlap.total_zero_overlap_exceptions()}; "
            f"par<->par var: {self.overlap.parallel_parallel_variance_over_k():.3f}"
        )
        return f"{table}\n{footer}"

    def ixp_share_summary(self) -> str:
        """Render the Section 4 IXP-share findings."""
        threshold = self.ixp_share.high_on_ixp_threshold()
        full = self.ixp_share.full_share_communities()
        gap = self.ixp_share.no_full_share_band()
        lines = [
            "Section 4: IXP share analysis",
            f"every community with k >= {threshold} has >= 90% on-IXP members",
            f"communities with a full-share IXP: {len(full)}",
            f"no-full-share band (trunk): k in {gap}",
        ]
        return "\n".join(lines)

    def band_reports(self) -> str:
        """Render the Sections 4.1-4.3 crown/trunk/root findings."""
        crown, trunk, root = self.crown, self.trunk, self.root
        named = self.dataset
        lines = [
            f"CROWN (k in [{crown.k_range[0]}, {crown.k_range[1]}]): "
            f"{crown.n_communities} communities",
            f"  apex {crown.apex_label}: {crown.apex_size} ASes, max-share "
            f"{crown.apex_max_share_ixp} ({crown.apex_max_share_fraction:.0%}), "
            f"full-share: {crown.apex_has_full_share}",
            f"  max-share IXPs: {sorted(crown.max_share_ixps)}",
            f"  non-European members: "
            f"{sorted(named.name_of(a) for a in crown.non_european_members)}",
            f"  members in no IXP: {len(crown.non_ixp_members)}",
            f"  case study at k={crown.case_study_k}:",
        ]
        par_share_min = trunk.parallel_max_share_min
        for label, ixp, fraction, full_share, is_main in crown.case_study:
            role = "main" if is_main else "parallel"
            lines.append(
                f"    {label} [{role}]: max-share {ixp} ({fraction:.0%})"
                + (", full-share" if full_share else "")
            )
        lines += [
            f"TRUNK (k in [{trunk.k_range[0]}, {trunk.k_range[1]}]): "
            f"{trunk.n_communities} communities",
            f"  any full-share IXP: {trunk.any_full_share}",
            f"  min on-IXP fraction: {trunk.min_on_ixp_fraction:.0%}",
            f"  parallel max-share fractions all >= "
            f"{par_share_min if par_share_min is None else round(par_share_min, 2)}",
            f"  mean member degree: {trunk.mean_member_degree:.1f}",
            f"  worldwide/continental member fraction: "
            f"{trunk.worldwide_or_continental_fraction:.0%}",
            f"  longest nested parallel branch: {trunk.longest_branch}",
            f"ROOT (k in [{root.k_range[0]}, {root.k_range[1]}]): "
            f"{root.n_communities} communities",
            f"  mean parallel size: {root.mean_parallel_size:.2f}",
            f"  parallel communities with a full-share IXP: {root.full_share_parallels}",
            f"  full-share IXP countries: {sorted(root.full_share_ixp_countries)}",
            f"  country-contained parallel communities: {root.country_contained_parallels}",
        ]
        return "\n".join(lines)

    def full_report(self) -> str:
        """Everything, in paper order."""
        blocks = [
            f"Dataset: {self.dataset!r}",
            self.table_2_1(),
            self.table_2_2(),
            self.figure_4_1(),
            self.figure_4_3(),
            self.figure_4_4a(),
            self.figure_4_4b(),
            self.overlap_summary(),
            self.ixp_share_summary(),
            self.band_reports(),
        ]
        return "\n\n".join(blocks)
