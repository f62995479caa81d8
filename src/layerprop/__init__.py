"""A typed multi-layer string diagram calculus with rewriting, explanation
checking, and finite profunctor-style semantics."""

__version__ = "0.1.0"

from .theory import (Equation, LayerPresentation, MorphismGen, OmegaType,
                     Sort, SystemOfLayers, TranslationFunctor, is_internal,
                     sheet, validate_system)
from .internal import InternalDiagram
from .diagram import (Diagram, box, canonicalize, canonical_key, cap,
                      coarsen, copants, cup, empty_diagram, export_dot,
                      fuse_internal, gen_box, identity, layer_eq,
                      par_tensor, pants, refine, seq_compose, sheet_sym,
                      structural_eq)
from .terms import build
from .rewrite import (Derivation, Match, NotFound, RewriteRule, RuleEngine,
                      apply_rule, find_derivation, verify_derivation)
from .explain import (ExplanationVerdict, check_counterfactual,
                      check_explanation_1, check_explanation_2,
                      contains_window, is_cowindow, is_window)
from .semantics import FinOmegaSystem, interpret, verify_rule_semantics
