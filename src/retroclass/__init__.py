"""retroclass: training-free retrieval enrichment for zero-shot classifiers.

A zero-shot cosine classifier scores a query embedding against one prototype
per class. This package augments both sides at inference time: each class
prototype is interpolated with a softmax-weighted centroid of its top-k
retrieved captions, and each query is interpolated with the centroid of its
own retrieved captions. No training, no gradients; just banks of unit-norm
embeddings, exact or inverted-file retrieval, and a handful of interpolation
weights.
"""

from .bank import CaptionRecord, EmbeddingBank, bank_load, bank_save
from .classify import (Prediction, classify_batch, classify_query, logits,
                       predict_topk, read_predictions, write_predictions)
from .enrich import (EnrichedVector, EnrichmentConfig, PrototypeSet,
                     enrich_all_prototypes, enrich_prototype, enrich_query,
                     gather_captions, softmax_weights, zeroshot_prototypes)
from .errors import RetroclassError
from .harness import (EvalReport, SweepGrid, SynthFixture, accuracy,
                      emit_report, load_fixture_dir, run_eval, run_sweep,
                      synth_fixture)
from .index import (HitTable, IvfIndex, QueryEmbedding, RetrievalHit,
                    Retriever, batch_topk, build_ivf, exact_topk, ivf_search,
                    load_index, recall_at_k, save_index, search)
from .prompts import (ClassTable, PromptTemplate, build_class_specs,
                      expand_template, load_class_config,
                      merge_alias_prototypes)

__version__ = "0.1.0"
