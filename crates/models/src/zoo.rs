//! A small registry mapping model names to builders.

use crate::densenet::densenet169;
use crate::resnet::resnet18;
use crate::vgg::vgg16;
use crate::{alexnet, densenet121, densenet_cifar, resnet50, resnet_cifar};
use bnff_graph::{Graph, Result};

/// The models available in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// AlexNet (Figure 1 baseline).
    AlexNet,
    /// VGG-16 (Figure 1 baseline).
    Vgg16,
    /// ResNet-18.
    ResNet18,
    /// ResNet-50 (paper's secondary target).
    ResNet50,
    /// DenseNet-121 (paper's primary target).
    DenseNet121,
    /// DenseNet-169.
    DenseNet169,
    /// CIFAR-scale DenseNet-BC for numerical experiments.
    DenseNetCifar,
    /// CIFAR-scale ResNet-20 for numerical experiments.
    ResNetCifar,
}

impl Model {
    /// All ImageNet-scale models evaluated in the paper's Figure 1.
    pub fn figure1_models() -> Vec<Model> {
        vec![Model::AlexNet, Model::Vgg16, Model::ResNet50, Model::DenseNet121]
    }

    /// The display name used in reports.
    pub fn display_name(self) -> &'static str {
        match self {
            Model::AlexNet => "AlexNet",
            Model::Vgg16 => "VGG-16",
            Model::ResNet18 => "ResNet-18",
            Model::ResNet50 => "ResNet-50",
            Model::DenseNet121 => "DenseNet-121",
            Model::DenseNet169 => "DenseNet-169",
            Model::DenseNetCifar => "DenseNet-CIFAR",
            Model::ResNetCifar => "ResNet-CIFAR",
        }
    }
}

/// Builds the requested model at the given mini-batch size.
///
/// # Errors
/// Returns an error if graph construction fails.
pub fn build(model: Model, batch: usize) -> Result<Graph> {
    match model {
        Model::AlexNet => alexnet(batch),
        Model::Vgg16 => vgg16(batch),
        Model::ResNet18 => resnet18(batch),
        Model::ResNet50 => resnet50(batch),
        Model::DenseNet121 => densenet121(batch),
        Model::DenseNet169 => densenet169(batch),
        Model::DenseNetCifar => densenet_cifar(batch, 12, 6, 10),
        Model::ResNetCifar => resnet_cifar(batch, 3, 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_builds_and_validates() {
        for model in [
            Model::AlexNet,
            Model::Vgg16,
            Model::ResNet18,
            Model::ResNet50,
            Model::DenseNet121,
            Model::DenseNetCifar,
            Model::ResNetCifar,
        ] {
            let g = build(model, 2).unwrap();
            assert!(g.validate().is_ok(), "{} fails validation", model.display_name());
            assert!(g.node_count() > 10);
        }
    }

    #[test]
    fn figure1_lineup() {
        let models = Model::figure1_models();
        assert_eq!(models.len(), 4);
        assert!(models.contains(&Model::DenseNet121));
        assert_eq!(Model::DenseNet121.display_name(), "DenseNet-121");
    }
}
