"""Reporting: text renderings of the paper's tables and figures."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "atlas": ["Atlas", "CountryProfile", "IXPProfile", "build_atlas"],
        "csvdata": ["figure_csvs", "write_figure_csvs"],
        "figures": ["ascii_scatter", "ascii_table", "format_number"],
        "graphml": ["graphml_document", "write_graphml"],
        "html": ["render_html_report"],
        "paper": ["PaperRun"],
        "svg": ["svg_scatter"],
    },
)
