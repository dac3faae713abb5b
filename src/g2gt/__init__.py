"""Graph-conditioned transformer encoding with iterative graph refinement.

The package trains and runs a dependency parser whose self-attention
reads a labeled input graph, whose edge scorer predicts a labeled graph
over the same nodes, and whose refinement loop feeds each prediction
back in until it stops changing.
"""

from .autodiff import (Record, Tensor, backward, layer_norm, matmul, recording,
                       softmax_rows)
from .attention import (EncoderState, G2GLayerConfig, RelationEmbeddings,
                        attention_scores, attention_values, encode, init_encoder)
from .checkpoint import checkpoint_load, checkpoint_save
from .conllu import Sentence, load_conllu, write_conllu
from .config import RunConfig, load_config_file
from .edges import (EdgeScorerParams, EdgeScores, greedy_decode, init_edge_scorer,
                    label_edges, pooled_head_scores, score_edges, up_label_slab)
from .errors import CheckpointError, DataError, G2GTError, TrainingError, UsageError
from .graphs import (COREF_VOCAB, DepTree, GraphBatch, LabeledGraph, RelationVocab,
                     dep_tree_to_graph, empty_graph, graph_equals, graph_to_dep_tree,
                     permute_graph)
from .model import (DependencyParserModel, MentionCorefModel, ModelConfig,
                    SentenceEncoderModel)
from .mst import is_arborescence, mst_decode
from .optim import (Adam, GradCheckReport, Parameter, ParameterRegistry,
                    adam_step, grad_check)
from .refine import (FactoredGraphDistribution, RefinementConfig, RefinementTrace,
                     graph_log_likelihood, refine, refinement_loss, stage_mask,
                     train_refinement_step)
from .training import EvalReport, evaluate, parse_corpus, train
from .vocab import Vocab, build_vocabs

__version__ = "0.1.0"
